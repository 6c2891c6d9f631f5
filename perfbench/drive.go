package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// stream is one stream as its single writer sees it.
type stream struct {
	id     string
	in     *input
	off    int  // rows acknowledged so far
	broken bool // an observe failed; the stream is left alone until verification
}

// sender is one closed-loop client: it sends its next request only after the
// previous one completed. Each sender owns its streams outright.
type sender struct {
	idx     int
	w       workload
	c       *client
	streams []*stream
	seq     []int // stream choice per operation, cycled
	next    int   // operations issued, across phases
	ests    int   // estimates issued, for outcome rotation

	cnt    counts
	rows   int64
	t0     time.Time // start of the current phase
	obsLat []sample
	estLat []sample
	log    *spanLog // nil when tracing is off
	bad    error    // first correctness mismatch
	fail   error    // first failure of any kind
}

// step runs the sender's next operation: an observe, an estimate, or (on
// the JSON workload) an observe followed by an estimate of the same stream.
func (s *sender) step(ctx context.Context) {
	i := s.next
	s.next++
	st := s.streams[s.seq[i%len(s.seq)]]
	if st.broken {
		return
	}
	observe := s.w.estimateEvery == 0 || (i+1)%s.w.estimateEvery != 0
	read := s.w.estimateEvery == 0 || !observe
	opID := int64(s.idx)<<40 | int64(i)
	if observe {
		if st.off+s.w.batch > s.w.horizon {
			s.cnt.skipped++
			return
		}
		s.cnt.attempted++
		t0 := time.Now()
		err := s.c.observe(ctx, &s.cnt, st.in, st.off)
		t1 := time.Now()
		if !s.settle(err, st) {
			return
		}
		st.off += s.w.batch
		s.rows += int64(s.w.batch)
		s.obsLat = append(s.obsLat, sample{at: t1.Sub(s.t0), lat: t1.Sub(t0)})
		s.log.add("loop", "observe", opID, t0, t1)
	}
	if read {
		outcome := s.ests % s.w.outcomes
		s.ests++
		s.cnt.attempted++
		t0 := time.Now()
		_, err := s.c.estimate(ctx, &s.cnt, st.id, outcome, st.off)
		t1 := time.Now()
		if !s.settle(err, st) {
			return
		}
		s.estLat = append(s.estLat, sample{at: t1.Sub(s.t0), lat: t1.Sub(t0)})
		s.log.add("loop", "estimate", opID, t0, t1)
	}
}

func (s *sender) settle(err error, st *stream) bool {
	if err == nil {
		s.cnt.succeeded++
		return true
	}
	s.cnt.failed++
	st.broken = true
	if s.fail == nil {
		s.fail = err
	}
	if errors.Is(err, errMismatch) && s.bad == nil {
		s.bad = err
	}
	return false
}

// create sends each owned stream its first batch.
func (s *sender) create(ctx context.Context) error {
	for _, st := range s.streams {
		s.cnt.attempted++
		err := s.c.observe(ctx, &s.cnt, st.in, st.off)
		if !s.settle(err, st) {
			return err
		}
		st.off += s.w.batch
	}
	return nil
}

// sample is one completed request: when it completed, from the start of its
// phase, and how long it took.
type sample struct{ at, lat time.Duration }

// reset clears the per-phase tallies for a phase starting at t0; stream
// offsets and the operation sequence carry on.
func (s *sender) reset(t0 time.Time, latCap int) {
	s.cnt = counts{}
	s.rows = 0
	s.t0 = t0
	s.obsLat = make([]sample, 0, latCap)
	s.estLat = make([]sample, 0, latCap)
}

// runSenders runs every sender's closed loop concurrently, for dur or for
// ops operations each (whichever is set), and returns the wall time.
func runSenders(ctx context.Context, ss []*sender, dur time.Duration, ops int) time.Duration {
	var stop atomic.Bool
	if dur > 0 {
		t := time.AfterFunc(dur, func() { stop.Store(true) })
		defer t.Stop()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; (ops <= 0 || n < ops) && !stop.Load() && ctx.Err() == nil; n++ {
				s.step(ctx)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// phase is the merged outcome of one closed-loop phase.
type phase struct {
	elapsed time.Duration
	rows    int64
	cnt     counts
	obs     []sample
	est     []sample
	// marks are (time since the phase start, process CPU time) taken once a
	// second; consecutive marks bound the phase's slices of about a second.
	marks []mark
	bad   error
	fail  error
}

type mark struct{ at, cpu time.Duration }

func timedPhase(ctx context.Context, ss []*sender, dur time.Duration) phase {
	t0 := time.Now()
	for _, s := range ss {
		s.reset(t0, 1<<14)
	}
	p := phase{marks: []mark{{0, cpuTime()}}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				p.marks = append(p.marks, mark{now.Sub(t0), cpuTime()})
			}
		}
	}()
	p.elapsed = runSenders(ctx, ss, dur, 0)
	close(stop)
	<-done
	end, cpu := time.Since(t0), cpuTime()
	// The tail after the last tick is a slice of its own only when it is
	// long enough to measure (or the phase had no full second).
	if last := p.marks[len(p.marks)-1]; len(p.marks) == 1 || end-last.at >= time.Second/2 {
		p.marks = append(p.marks, mark{end, cpu})
	}
	for _, s := range ss {
		p.rows += s.rows
		p.cnt.add(s.cnt)
		p.obs = append(p.obs, s.obsLat...)
		p.est = append(p.est, s.estLat...)
		if p.bad == nil {
			p.bad = s.bad
		}
		if p.fail == nil {
			p.fail = s.fail
		}
		s.obsLat, s.estLat = nil, nil
	}
	return p
}

// merge folds q into p (their slices are not combined).
func (p *phase) merge(q phase) {
	p.elapsed += q.elapsed
	p.rows += q.rows
	p.cnt.add(q.cnt)
	p.obs = append(p.obs, q.obs...)
	p.est = append(p.est, q.est...)
	p.bad = errors.Join(p.bad, q.bad)
	if p.fail == nil {
		p.fail = q.fail
	}
}

// pct is the nearest-rank q-quantile of the samples' latencies, in
// milliseconds.
func pct(ss []sample, q float64) float64 {
	if len(ss) == 0 {
		return math.NaN()
	}
	lat := make([]time.Duration, len(ss))
	for i, s := range ss {
		lat[i] = s.lat
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(math.Ceil(q*float64(len(lat)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(lat[i].Nanoseconds()) / 1e6
}

// slices splits the phase's samples into its slices.
func (p *phase) slices() (obs, est [][]sample) {
	n := len(p.marks) - 1
	if n < 1 {
		return nil, nil
	}
	obs, est = make([][]sample, n), make([][]sample, n)
	bucket := func(at time.Duration) int {
		return sort.Search(n, func(i int) bool { return p.marks[i+1].at > at })
	}
	for _, s := range p.obs {
		if i := bucket(s.at); i < n {
			obs[i] = append(obs[i], s)
		}
	}
	for _, s := range p.est {
		if i := bucket(s.at); i < n {
			est[i] = append(est[i], s)
		}
	}
	return obs, est
}

// sliced reports a figure as the mean over the phase's slices. The loop
// moves between regimes that last a few seconds (on http-read-write, on a
// 2-vCPU Xeon, a slice's observe p50 is either about 0.35 or about 0.55 ms),
// so the median of the slices, like the p50 of the pooled samples, jumps
// between the two levels as one or the other fills half the run; the mean
// moves only with the share of time spent in each.
func (p *phase) sliced(f func(obs, est []sample, secs float64, cpu time.Duration) float64) float64 {
	obs, est := p.slices()
	vals := make([]float64, 0, len(obs))
	for i := range obs {
		secs := (p.marks[i+1].at - p.marks[i].at).Seconds()
		if v := f(obs[i], est[i], secs, p.marks[i+1].cpu-p.marks[i].cpu); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// scrape is the part of a node's /metrics JSON the benchmark reads.
type scrape struct {
	Ingest struct {
		AppliedBatches   int64 `json:"applied_batches"`
		CoalescedBatches int64 `json:"coalesced_batches"`
	} `json:"ingest"`
	Cluster *struct {
		ForwardedObserves int64 `json:"forwarded_observes"`
		ForwardErrors     int64 `json:"forward_errors"`
		ReplicatesShipped int64 `json:"replicates_shipped"`
	} `json:"cluster"`
}

// scrapeAll reads /metrics from every node through its handler (no socket)
// and sums the counters.
func scrapeAll(sys *system) (scrape, error) {
	var sum scrape
	for _, n := range sys.nodes {
		rec := httptest.NewRecorder()
		n.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
		if rec.Code != http.StatusOK {
			return sum, fmt.Errorf("%s /metrics: HTTP %d", n.id, rec.Code)
		}
		var s scrape
		if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
			return sum, fmt.Errorf("%s /metrics: %w", n.id, err)
		}
		sum.Ingest.AppliedBatches += s.Ingest.AppliedBatches
		sum.Ingest.CoalescedBatches += s.Ingest.CoalescedBatches
		if s.Cluster != nil {
			if sum.Cluster == nil {
				sum.Cluster = s.Cluster
				continue
			}
			sum.Cluster.ForwardedObserves += s.Cluster.ForwardedObserves
			sum.Cluster.ForwardErrors += s.Cluster.ForwardErrors
			sum.Cluster.ReplicatesShipped += s.Cluster.ReplicatesShipped
		}
	}
	return sum, nil
}
