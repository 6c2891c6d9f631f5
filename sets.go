package privreg

import (
	"privreg/internal/constraint"
	"privreg/internal/vec"
)

// Constraint is a convex constraint set C ⊂ R^d for the regression parameter.
// Construct one with L2Constraint, L1Constraint, LpConstraint,
// SimplexConstraint, GroupL1Constraint, BoxConstraint or PolytopeConstraint.
type Constraint struct {
	set constraint.Set
}

// Domain describes the covariate domain X ⊂ R^d. Its Gaussian width drives the
// projection dimension of the projected mechanisms. Construct one with
// UnitBallDomain, SparseDomain or L1Domain.
type Domain struct {
	set constraint.Set
}

// L2Constraint returns the Euclidean ball of the given radius (ridge
// regression).
func L2Constraint(dim int, radius float64) Constraint {
	return Constraint{set: constraint.NewL2Ball(dim, radius)}
}

// L1Constraint returns the L1 ball of the given radius (Lasso regression).
func L1Constraint(dim int, radius float64) Constraint {
	return Constraint{set: constraint.NewL1Ball(dim, radius)}
}

// LpConstraint returns the Lp ball of the given radius for p ≥ 1.
func LpConstraint(dim int, p, radius float64) Constraint {
	return Constraint{set: constraint.NewLpBall(dim, p, radius)}
}

// SimplexConstraint returns the probability simplex scaled to the given total
// mass.
func SimplexConstraint(dim int, mass float64) Constraint {
	return Constraint{set: constraint.NewSimplex(dim, mass)}
}

// GroupL1Constraint returns the group/block-L1 ball with consecutive blocks of
// the given size.
func GroupL1Constraint(dim, groupSize int, radius float64) Constraint {
	return Constraint{set: constraint.NewGroupL1Ball(dim, groupSize, radius)}
}

// BoxConstraint returns the hypercube [-halfWidth, halfWidth]^d.
func BoxConstraint(dim int, halfWidth float64) Constraint {
	return Constraint{set: constraint.NewBox(dim, halfWidth)}
}

// PolytopeConstraint returns the convex hull of the given vertices.
func PolytopeConstraint(vertices [][]float64) Constraint {
	vs := make([]vec.Vector, len(vertices))
	for i, v := range vertices {
		vs[i] = vec.Vector(v).Clone()
	}
	return Constraint{set: constraint.NewPolytope(vs)}
}

// Dim returns the ambient dimension of the constraint set.
func (c Constraint) Dim() int { return c.set.Dim() }

// Diameter returns ‖C‖ = sup_{θ∈C} ‖θ‖₂.
func (c Constraint) Diameter() float64 { return c.set.Diameter() }

// GaussianWidth returns the (analytic) Gaussian width w(C).
func (c Constraint) GaussianWidth() float64 { return c.set.GaussianWidth() }

// Project returns the Euclidean projection of x onto the constraint set.
func (c Constraint) Project(x []float64) []float64 {
	out := make([]float64, len(x))
	c.set.ProjectInto(out, x, nil)
	return out
}

// Contains reports whether x lies in the constraint set up to tolerance tol.
func (c Constraint) Contains(x []float64, tol float64) bool {
	return c.set.Contains(vec.Vector(x), tol)
}

// Name returns a short description of the constraint set.
func (c Constraint) Name() string { return c.set.Name() }

// valid reports whether the Constraint was built by one of the constructors.
func (c Constraint) valid() bool { return c.set != nil }

// UnitBallDomain describes covariates drawn from the Euclidean unit ball (the
// generic, worst-case domain with Gaussian width ≈ √d).
func UnitBallDomain(dim int) Domain {
	return Domain{set: constraint.NewL2Ball(dim, 1)}
}

// SparseDomain describes covariates that are k-sparse unit vectors, the
// low-Gaussian-width domain (≈ √(k log(d/k))) motivating Algorithm PRIVINCREG2.
func SparseDomain(dim, sparsity int) Domain {
	return Domain{set: constraint.NewSparseSet(dim, sparsity, 1)}
}

// L1Domain describes covariates drawn from the L1 ball of the given radius
// (Gaussian width ≈ radius·√(log d)).
func L1Domain(dim int, radius float64) Domain {
	return Domain{set: constraint.NewL1Ball(dim, radius)}
}

// Dim returns the ambient dimension of the domain.
func (d Domain) Dim() int { return d.set.Dim() }

// GaussianWidth returns the (analytic) Gaussian width w(X).
func (d Domain) GaussianWidth() float64 { return d.set.GaussianWidth() }

// Contains reports whether x lies in the domain up to tolerance tol.
func (d Domain) Contains(x []float64, tol float64) bool {
	return d.set.Contains(vec.Vector(x), tol)
}

// Name returns a short description of the domain.
func (d Domain) Name() string { return d.set.Name() }

// valid reports whether the Domain was built by one of the constructors.
func (d Domain) valid() bool { return d.set != nil }
