package randx

import "sync"

// This file implements the counter-keyed noise substrate of the Tree
// Mechanism's noise overlays: a splittable, counter-based PRF stream whose
// output is a pure function of (key, node) — never of draw order. The
// continual-sum mechanisms key every tree node's noise vector by its position
// in the dyadic tree, so ingestion performs no sampling at all and a release
// regenerates the noise of the nodes it sums (identically, no matter when or
// how often) and adds it straight into its destination; nothing is cached.
// Batch and scalar ingestion, and checkpoint/restore at any cut point, are
// bit-identical by construction: there is no sampler state to advance out of
// sync.
//
// Filling a noise vector is the hot loop of a tree read. FillNormal and
// AddNormal share one loop (normals) that keeps the stream state in a local,
// steps SplitMix64 and runs the ziggurat's rectangle test inline, and leaves
// only the rejected ~2% of draws to the out-of-line wedge and tail code
// (zigNormalFrom), with the state written back around that call. The words
// drawn and the output bits are those of zigNormal over Uint64.

// golden is the SplitMix64 increment (2^64/φ, the Weyl constant of the
// sequence).
const golden = 0x9e3779b97f4a7c15

// counterTag domain-separates SubKey derivation from CounterSource stream
// initialization (an arbitrary odd 64-bit constant, distinct from golden).
const counterTag = 0xd1b54a32d192ed03

// CounterSource is a counter-mode PRF stream: a SplitMix64 sequence whose
// initial state is a hash of a 64-bit key and a node index. Successive Uint64
// values are Mix64 over a Weyl sequence — the standard SplitMix64 generator —
// so streams for distinct (key, node) pairs are statistically independent and
// each stream is reproducible from its two integers alone. The zero value is
// a valid (key 0, node 0) stream; use NewCounterSource for keyed streams.
type CounterSource struct {
	state uint64
}

// NewCounterSource returns the PRF stream for the given key and node index.
func NewCounterSource(key int64, node uint64) CounterSource {
	s := Mix64(uint64(key) + golden)
	s = Mix64(s ^ Mix64(node+golden))
	return CounterSource{state: s}
}

// Uint64 returns the next 64-bit word of the stream.
func (c *CounterSource) Uint64() uint64 {
	c.state += golden
	return Mix64(c.state)
}

// FillNormal fills dst with i.i.d. N(0, sigma^2) samples drawn from the
// stream via the ziggurat. sigma must be non-negative; sigma == 0 writes
// zeros without consuming the stream.
func (c *CounterSource) FillNormal(dst []float64, sigma float64) {
	if sigma < 0 {
		panic("randx: negative standard deviation")
	}
	if sigma == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	c.normals(dst, sigma, false)
}

// AddNormal adds i.i.d. N(0, sigma^2) samples drawn from the stream into
// dst: dst[i] += sigma·z_i, with the product rounded to float64 before the
// addition (the conversion keeps the compiler from fusing a multiply-add), so
// the result is bit-identical to FillNormal into a buffer followed by adding
// the buffer. sigma must be non-negative; sigma == 0 leaves dst unchanged
// without consuming the stream.
func (c *CounterSource) AddNormal(dst []float64, sigma float64) {
	if sigma < 0 {
		panic("randx: negative standard deviation")
	}
	if sigma == 0 {
		return
	}
	c.normals(dst, sigma, true)
}

// normals writes (add false) or adds (add true) sigma·z_i into dst. The
// stream's state lives in a local copy, so it stays in a register, and each
// draw takes its word with an inlined SplitMix64 step and runs the inlined
// rectangle test (zigRect). A rejected word, about 2% of draws, goes to
// zigNormalFrom with the state synced through c, so the words drawn and every
// output bit are those of zigNormal over c.Uint64.
func (c *CounterSource) normals(dst []float64, sigma float64, add bool) {
	s := c.state
	for i := range dst {
		s += golden
		b := Mix64(s)
		z, ok := zigRect(b)
		if !ok {
			c.state = s
			z = zigNormalFrom(c, b)
			s = c.state
		}
		if add {
			dst[i] += float64(sigma * z)
		} else {
			dst[i] = sigma * z
		}
	}
	c.state = s
}

// SubKey derives an independent child PRF key from a parent key and an index,
// e.g. the per-epoch tree keys of the Hybrid mechanism. The derivation is a
// pure function (no generator state), so restored mechanisms re-derive the
// same sub-keys without replaying any stream.
func SubKey(key int64, idx uint64) int64 {
	return int64(Mix64(Mix64(uint64(key)+golden)^Mix64(idx+counterTag)) & 0x7fffffffffffffff)
}

// FillNormalAt fills dst with the i.i.d. N(0, sigma^2) noise vector of stream
// (key, node): a pure function of its arguments. It is the convenience form
// of CounterSource.FillNormal for callers that do not retain a stream.
func FillNormalAt(key int64, node uint64, dst []float64, sigma float64) {
	c := NewCounterSource(key, node)
	c.FillNormal(dst, sigma)
}

// bufPool recycles float64 scratch buffers for transient noise sums (e.g.
// the Hybrid mechanism's completed-epoch snapshot noise at estimate time), so
// the read paths stay allocation-free in steady state.
var bufPool = sync.Pool{New: func() any { return new([]float64) }}

// GetBuf returns a zeroed scratch buffer of length n from the pool.
func GetBuf(n int) *[]float64 {
	b := bufPool.Get().(*[]float64)
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	*b = (*b)[:n]
	for i := range *b {
		(*b)[i] = 0
	}
	return b
}

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(b *[]float64) { bufPool.Put(b) }
