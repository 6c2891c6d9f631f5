// Private incremental regression on an ongoing mobile survey with drifting
// associations — the motivating scenario from the paper's introduction.
//
// A data scientist keeps a linear model of how respondents' profile features
// relate to an outcome, updating it as survey responses stream in from mobile
// devices. The relationship drifts over time (new behaviours, seasons, app
// versions), so the model must be continuously re-estimated — yet no sequence
// of published coefficient updates may reveal whether any single person
// responded to the survey. Event-level differential privacy over the stream is
// exactly that guarantee.
//
// The example compares three policies over the same drifting stream:
//
//   - the generic transformation (recompute a private batch ERM every τ steps),
//   - the gradient mechanism (Algorithm PRIVINCREG1, updated every step), and
//   - the exact non-private solver (utility ceiling, not releasable).
//
// Run with:
//
//	go run ./examples/mobile_survey
package main

import (
	"fmt"
	"log"
	"math/rand"

	"privreg"
)

const (
	dim     = 12
	horizon = 1500
	epsilon = 1.0
	delta   = 1e-6
)

func main() {
	cons := privreg.L2Constraint(dim, 1.0)
	base := []privreg.Option{
		privreg.WithEpsilonDelta(epsilon, delta),
		privreg.WithHorizon(horizon),
		privreg.WithConstraint(cons),
		privreg.WithSeed(19),
		privreg.WithWarmStart(true),
	}

	gradient, err := privreg.New("gradient", base...)
	if err != nil {
		log.Fatal(err)
	}
	generic, err := privreg.New("generic-erm", append(base, privreg.WithLoss(privreg.SquaredLoss))...)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := privreg.New("nonprivate", privreg.WithHorizon(horizon), privreg.WithConstraint(cons))
	if err != nil {
		log.Fatal(err)
	}

	// The association between profile features and outcome drifts from thetaA
	// to thetaB over the course of the survey.
	thetaA := make([]float64, dim)
	thetaB := make([]float64, dim)
	thetaA[0], thetaA[1] = 0.6, 0.3
	thetaB[4], thetaB[5] = -0.5, 0.4

	rng := rand.New(rand.NewSource(23))
	var xs [][]float64
	var ys []float64

	fmt.Printf("ongoing survey: %d responses, %d profile features, (ε=%g, δ=%g)\n\n", horizon, dim, epsilon, delta)
	fmt.Printf("%6s  %16s  %16s  %16s\n", "t", "excess(gradient)", "excess(generic)", "excess(exact)")
	for t := 1; t <= horizon; t++ {
		alpha := float64(t) / float64(horizon)
		x := profile(rng)
		var y float64
		for i := range x {
			y += x[i] * ((1-alpha)*thetaA[i] + alpha*thetaB[i])
		}
		y += 0.03 * rng.NormFloat64()
		xs = append(xs, x)
		ys = append(ys, y)

		for _, est := range []privreg.Estimator{gradient, generic, exact} {
			if err := est.Observe(x, y); err != nil {
				log.Fatal(err)
			}
		}

		if t%300 == 0 || t == horizon {
			row := []float64{}
			for _, est := range []privreg.Estimator{gradient, generic, exact} {
				theta, err := est.Estimate()
				if err != nil {
					log.Fatal(err)
				}
				excess, err := privreg.ExcessRisk(cons, xs, ys, theta)
				if err != nil {
					log.Fatal(err)
				}
				row = append(row, excess)
			}
			fmt.Printf("%6d  %16.3f  %16.3f  %16.3f\n", t, row[0], row[1], row[2])
		}
	}
	fmt.Println("\nthe private mechanisms track the drifting association while every published")
	fmt.Println("update protects individual survey responses with event-level differential privacy")
}

// profile draws a respondent feature vector inside the unit ball (a mix of a
// few informative features and background noise).
func profile(rng *rand.Rand) []float64 {
	x := make([]float64, dim)
	var norm float64
	for i := range x {
		x[i] = rng.NormFloat64()
		norm += x[i] * x[i]
	}
	scale := 1.0
	if norm > 1 {
		scale = 1 / (1 + norm)
	}
	for i := range x {
		x[i] *= scale
	}
	return x
}
