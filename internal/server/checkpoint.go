package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"privreg"
	"privreg/internal/store"
)

// checkpointer persists the pool to disk. Since the stream-store engine the
// pool itself owns the durable format — per-stream segment files plus an
// atomically replaced manifest — and the checkpointer is the policy layer on
// top: restore on boot, periodic incremental flushes, an
// operator-triggered flush (POST /v1/checkpoint), and the final flush during
// graceful drain. Each flush rewrites only segments of streams that changed
// since the last one, so its cost tracks traffic, not total stream count.
type checkpointer struct {
	pool *privreg.Pool
	dir  string
	met  *metrics
	logf func(format string, args ...any)

	// mu serializes saves so checkpoint metrics and logs are coherent (the
	// store additionally serializes the flush itself).
	mu sync.Mutex
}

func (c *checkpointer) path() string { return filepath.Join(c.dir, store.ManifestFile) }

// restore completes boot-time recovery. The pool already opened the
// manifest (streams register lazily; nothing deserializes until first
// access), so restore only has to report the stream count.
func (c *checkpointer) restore() int {
	n := c.pool.Stats().Streams
	c.met.setRestoredStreams(n)
	return n
}

// save writes one incremental checkpoint: dirty streams' segments (fsynced),
// then the manifest via temp file + fsync + atomic rename, so the on-disk
// recovery root only ever moves forward in time.
func (c *checkpointer) save() (fs privreg.FlushStats, seconds float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	defer func() {
		seconds = time.Since(start).Seconds()
		c.met.recordCheckpoint(fs, seconds, err)
	}()
	fs, err = c.pool.Flush()
	if err != nil {
		return fs, 0, fmt.Errorf("server: flushing pool: %w", err)
	}
	return fs, 0, nil
}

// run saves on every tick until stop is closed. Errors are logged and
// counted, not fatal: the previous manifest stays in place (atomic rename)
// and the next tick retries.
func (c *checkpointer) run(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if fs, secs, err := c.save(); err != nil {
				c.logf("periodic checkpoint failed: %v", err)
			} else {
				c.logf("checkpoint: %d/%d dirty segments (%d bytes) + manifest (%d bytes) in %.3fs",
					fs.Segments, fs.Streams, fs.SegmentBytes, fs.ManifestBytes, secs)
			}
		}
	}
}
