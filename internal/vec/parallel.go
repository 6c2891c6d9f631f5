package vec

import (
	"runtime"
	"sync"
)

// mulVecParallelMin is the size (rows*cols scalar multiply-adds, e.g.
// 256x256) above which the matrix-vector kernel fans the row loop out across
// goroutines. Below it the goroutine bookkeeping costs more than it saves;
// above it the kernel is memory/compute bound and the row partition
// parallelizes cleanly. Each goroutine writes a disjoint row range of the
// destination and the per-row accumulation order is unchanged, so parallel
// results are bit-identical to the serial ones.
const mulVecParallelMin = 1 << 16

// parallelRows splits [0, rows) into contiguous chunks and runs work on each
// chunk concurrently, blocking until all chunks complete. Chunk boundaries
// depend only on rows and GOMAXPROCS, never on the data.
func parallelRows(rows int, work func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		work(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// mulVecRows computes dst[lo:hi] = (m * x)[lo:hi].
func (m *Matrix) mulVecRows(dst, x Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}
