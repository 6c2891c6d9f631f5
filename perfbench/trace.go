package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one traced call: the rung (layer entry point) and operation, its
// start and end relative to the run's clock origin, and the ID of the
// workload operation that caused it.
type span struct {
	Rung  string `json:"rung"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	OpID  int64  `json:"op_id"`
}

// spanLog keeps spans in memory; one log per goroutine, so recording takes
// no lock. A nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(rung, op string, opID int64, t0, t1 time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Rung: rung, Op: op, Start: t0.Sub(l.t0).Nanoseconds(), End: t1.Sub(l.t0).Nanoseconds(), OpID: opID})
}

// total sums the durations of a rung's spans of one operation.
func (l *spanLog) total(rung, op string) time.Duration {
	var d int64
	for _, s := range l.spans {
		if s.Rung == rung && s.Op == op {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// durations lists a rung's span durations of one operation, in order.
func (l *spanLog) durations(rung, op string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Rung == rung && s.Op == op {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
