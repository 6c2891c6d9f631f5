package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"privreg/internal/cluster"
	"privreg/internal/constraint"
	"privreg/internal/core"
	"privreg/internal/dp"
	"privreg/internal/loss"
	"privreg/internal/randx"
	"privreg/internal/server"
)

// workload is one traffic mix: the server shape it boots and the closed loop
// that drives it. Every field is fixed per workload; only the seed varies
// between runs.
type workload struct {
	name      string
	transport string // "wire" (binary protocol) or "http" (JSON)
	mechanism string
	dim       int
	outcomes  int // response columns per row
	batch     int // rows per observe request
	streams   int
	storeCap  int // resident estimators; 0 keeps every stream resident
	nodes     int
	replicas  int
	conns     int // client connections
	inflight  int // concurrent requests per connection
	// estimateEvery > 0: every estimateEvery-th operation of a sender reads
	// an estimate instead of observing (outcomes rotate). 0: every operation
	// observes and then reads the estimate of the same stream.
	estimateEvery int
	// zipf > 0: a sender picks among its streams by Zipf(zipf); 0: round robin.
	zipf    float64
	horizon int
	// rowPool is the number of pre-generated rows per stream: row j of a
	// stream is server.SyntheticPointMulti(stream, j mod rowPool).
	rowPool int
	// warmupOps is the per-sender operation count of the untimed warm-up
	// that follows stream creation.
	warmupOps int
	// ladderOps is the per-sender operation count the traced ladder replays.
	ladderOps int
}

// Horizons are sized well above what a stream can receive in one run (a
// sender also skips a stream that would overrun it, counted as a horizon
// skip, so an over-horizon observe can never become a failure).
var workloads = []workload{
	// Seven eighths of the streams stay resident, so about 3% of operations
	// fault a stream in and evict another. The spill store lives inside the
	// benchmark's own directory, on whatever filesystem holds it; with half
	// resident (15% fault-ins) the segment churn of about 35 MB/s of 150 KB
	// files, all kept until the final checkpoint, moved observe_p90_ms by
	// 50% between runs of the same seed, and with three quarters resident
	// (6%) observe_p90_ms sat on the edge of the fault-in mode.
	{
		name: "http-read-write", transport: "http", mechanism: "gradient",
		dim: 32, outcomes: 1, batch: 16, streams: 256, storeCap: 224,
		nodes: 1, conns: 2, inflight: 1, zipf: 1.1,
		horizon: 1 << 19, rowPool: 128, warmupOps: 32, ladderOps: 160,
	},
	{
		name: "cluster-multi", transport: "wire", mechanism: "multi-outcome",
		dim: 32, outcomes: 4, batch: 256, streams: 12,
		nodes: 3, replicas: 2, conns: 2, inflight: 2, estimateEvery: 4,
		horizon: 1 << 24, rowPool: 1024, warmupOps: 32, ladderOps: 24,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) senders() int { return w.conns * w.inflight }

// spec is the served pool for a seed: the seed is the pool template seed.
func (w workload) spec(seed int64) server.Spec {
	sp := server.Spec{
		Mechanism: w.mechanism,
		Epsilon:   1,
		Delta:     1e-6,
		Horizon:   w.horizon,
		Dim:       w.dim,
		Radius:    1,
		Seed:      seed,
	}
	if w.outcomes > 1 {
		sp.Outcomes = w.outcomes
	}
	return sp
}

// tau is the recomputation period the mechanism derives from the horizon,
// or 0 for a mechanism without one (the gradient mechanism solves at every
// read).
func (w workload) tau(sp server.Spec) (int, error) {
	if w.mechanism != "multi-outcome" {
		return 0, nil
	}
	p, err := dp.PerInvocationAdvanced(dp.Params{Epsilon: sp.Epsilon, Delta: sp.Delta}, w.outcomes)
	if err != nil {
		return 0, err
	}
	return core.TauForLoss(loss.Squared{}, constraint.NewL2Ball(sp.Dim, sp.Radius), sp.Horizon, p), nil
}

// streamIDs names the workload's streams; the salt comes from the seed, so
// each seed serves a different set of stream keys. On a cluster, names are
// drawn until every node owns the same number of streams and every (owner,
// standby) pair holds the same number, and they are ordered so that each
// sender owns streams on every node: the seed then changes the keys and the
// rows, not how the load falls on the ring.
func (w workload) streamIDs(seed int64) ([]string, error) {
	salt := uint32(randx.Mix64(uint64(seed)))
	name := func(i int) string { return fmt.Sprintf("%s-%08x-%03d", w.name, salt, i) }
	ids := make([]string, w.streams)
	if w.nodes == 1 {
		for i := range ids {
			ids[i] = name(i)
		}
		return ids, nil
	}
	members := make([]cluster.Node, w.nodes)
	for i := range members {
		members[i] = cluster.Node{ID: nodeID(i)}
	}
	ring, err := cluster.New(1, members, w.replicas, 0)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, w.nodes)
	for i, m := range members {
		index[m.ID] = i
	}
	// Position p is owned by node p mod nodes; the k-th position of a node
	// has its standby k steps round the other nodes.
	standby := func(p int) int {
		o, k := p%w.nodes, p/w.nodes
		return (o + 1 + k%(w.nodes-1)) % w.nodes
	}
	left := w.streams
	for i := 0; left > 0; i++ {
		if i == 1<<16 {
			return nil, fmt.Errorf("no balanced placement of %d streams on %d nodes", w.streams, w.nodes)
		}
		id := name(i)
		succ := ring.Successors(id, 2)
		o, sb := index[succ[0].ID], -1
		if w.replicas > 1 && len(succ) > 1 {
			sb = index[succ[1].ID]
		}
		for p := o; p < w.streams; p += w.nodes {
			if ids[p] == "" && (sb < 0 || standby(p) == sb) {
				ids[p] = id
				left--
				break
			}
		}
	}
	return ids, nil
}

// owned returns the stream indices sender s owns. Streams are dealt round
// robin, so every stream has exactly one writer and its row order is fixed.
func (w workload) owned(s int) []int {
	var out []int
	for i := s; i < w.streams; i += w.senders() {
		out = append(out, i)
	}
	return out
}

// opSeq is a sender's pre-drawn stream choice sequence (indices into its
// owned streams), cycled when exhausted.
func (w workload) opSeq(seed int64, s int) []int {
	n := len(w.owned(s))
	if w.zipf == 0 {
		seq := make([]int, n)
		for i := range seq {
			seq[i] = i
		}
		return seq
	}
	r := rand.New(rand.NewSource(seed*1000003 + int64(s)))
	z := rand.NewZipf(r, w.zipf, 1, uint64(n-1))
	seq := make([]int, 1<<15)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// input is one stream's pre-generated rows and, for JSON clients, its
// pre-encoded request bodies.
type input struct {
	id string
	xs []float64 // rowPool×dim
	ys []float64 // rowPool×outcomes
	// bodies[b] is the JSON body of row block b without its leading
	// `{"from":N,` prefix: `"xs":[...],"ys":[...]}`.
	bodies [][]byte
}

func genRows(w workload, id string) (xs, ys []float64) {
	xs = make([]float64, 0, w.rowPool*w.dim)
	ys = make([]float64, 0, w.rowPool*w.outcomes)
	for j := 0; j < w.rowPool; j++ {
		x, y := server.SyntheticPointMulti(id, j, w.dim, w.outcomes)
		xs = append(xs, x...)
		ys = append(ys, y...)
	}
	return xs, ys
}

func genInputs(w workload, ids []string, withJSON bool) ([]*input, error) {
	ins := make([]*input, len(ids))
	for i, id := range ids {
		in := &input{id: id}
		in.xs, in.ys = genRows(w, id)
		if withJSON {
			for b := 0; b < w.rowPool/w.batch; b++ {
				body, err := jsonBlock(w, in, b)
				if err != nil {
					return nil, err
				}
				in.bodies = append(in.bodies, body)
			}
		}
		ins[i] = in
	}
	return ins, nil
}

func jsonBlock(w workload, in *input, b int) ([]byte, error) {
	xs, ys := in.block(w, b*w.batch)
	rows := make([][]float64, w.batch)
	for i := range rows {
		rows[i] = xs[i*w.dim : (i+1)*w.dim]
	}
	var body []byte
	var err error
	if w.outcomes > 1 {
		yss := make([][]float64, w.batch)
		for i := range yss {
			yss[i] = ys[i*w.outcomes : (i+1)*w.outcomes]
		}
		body, err = json.Marshal(struct {
			Xs  [][]float64 `json:"xs"`
			Yss [][]float64 `json:"yss"`
		}{rows, yss})
	} else {
		body, err = json.Marshal(struct {
			Xs [][]float64 `json:"xs"`
			Ys []float64   `json:"ys"`
		}{rows, ys})
	}
	if err != nil {
		return nil, err
	}
	return body[1:], nil // drop '{'; the per-request prefix supplies it
}

// block returns the rows [off, off+batch) of the stream; off is a multiple
// of the batch size and rows cycle through the pool.
func (in *input) block(w workload, off int) (xs, ys []float64) {
	r := off % w.rowPool
	return in.xs[r*w.dim : (r+w.batch)*w.dim], in.ys[r*w.outcomes : (r+w.batch)*w.outcomes]
}

func (in *input) body(w workload, off int) []byte {
	return in.bodies[(off%w.rowPool)/w.batch]
}
