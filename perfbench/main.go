// Command perfbench is the serving benchmark of the privreg server. It boots
// the system under test in-process on loopback listeners, drives it with a
// closed loop of two client connections from the same process, checks every
// run's outputs against a shadow pool, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run and its layer
// ladder). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload cluster-multi --seed 1 --seconds 30 --trace 0
//
// The exit code is 0 only for a complete run whose correctness gate passed.
// On SIGINT, SIGTERM or the whole-run deadline every server, listener,
// client and spill directory is closed or removed and no result is printed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spillPrefix names a run's spill root inside the output directory; the
// suffix is the process ID, so a later run can tell stale roots left by a
// killed process from live ones.
const spillPrefix = "spill-"

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: http-read-write or cluster-multi")
	seed := fs.Int64("seed", 1, "workload seed: stream-name salt, Zipf draws and the pool seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for spill stores, span files and reports")
	deadline := fs.Duration("deadline", 170*time.Second, "whole-run deadline; the run is abandoned (cleanly) when it passes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	removeStaleSpills(*outDir)
	spill := spillRoot(*outDir)
	defer os.RemoveAll(spill)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *deadline)
	defer cancel()
	// Last resort if teardown itself hangs: the process exit closes every
	// socket; the spill root is removed first.
	watchdog := time.AfterFunc(*deadline+5*time.Second, func() {
		os.RemoveAll(spill)
		fmt.Fprintln(os.Stderr, "perfbench: teardown overran the deadline; exiting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	r, err := runWorkload(ctx, w, *seed, *seconds, *trace == 1, *outDir)
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		for _, m := range r.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				err = errors.Join(err, fmt.Errorf("metric %s has no value", m.name))
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	report(w, *seed, *seconds, *trace, r, *outDir)
	if !r.correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %v\n", r.gate)
		return 1
	}
	return 0
}

// report prints the run's notes and metrics, stores them as a JSON report,
// and prints the result object as the last line of standard output.
func report(w workload, seed int64, seconds, trace int, r *result, outDir string) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, seed, seconds, trace)
	for _, n := range r.notes {
		fmt.Println(n)
	}
	c := r.cnt
	errRate := 0.0
	if c.attempted > 0 {
		errRate = float64(c.failed) / float64(c.attempted)
	}
	fmt.Printf("ops: attempted=%d succeeded=%d failed=%d retried=%d horizon_skips=%d error_rate=%g\n",
		c.attempted, c.succeeded, c.failed, c.retried, c.skipped, errRate)
	if r.spans != "" {
		fmt.Printf("spans: %s\n", r.spans)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Printf("metric %-32s %16.6f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	attempted := c.attempted
	if attempted < 1 {
		attempted = 1
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, attempted, c.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	full, _ := json.MarshalIndent(struct {
		Workload  string          `json:"workload"`
		Seed      int64           `json:"seed"`
		Seconds   int             `json:"seconds"`
		Trace     int             `json:"trace"`
		Notes     []string        `json:"notes"`
		Succeeded int64           `json:"succeeded"`
		Retried   int64           `json:"retried"`
		Skipped   int64           `json:"horizon_skips"`
		ErrorRate float64         `json:"error_rate"`
		Listeners []string        `json:"listeners"`
		Spans     string          `json:"spans,omitempty"`
		Result    json.RawMessage `json:"result"`
	}{w.name, seed, seconds, trace, r.notes, c.succeeded, c.retried, c.skipped, errRate, r.addrs, r.spans, line}, "", "  ")
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, seed, trace))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	fmt.Println(string(line))
}

// spillRoot is this process's spill root under outDir.
func spillRoot(outDir string) string {
	return filepath.Join(outDir, spillPrefix+strconv.Itoa(os.Getpid()))
}

// removeStaleSpills deletes spill roots whose process is gone (a run killed
// before its own cleanup could run).
func removeStaleSpills(outDir string) {
	entries, err := os.ReadDir(outDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(strings.TrimPrefix(e.Name(), spillPrefix))
		if !e.IsDir() || !strings.HasPrefix(e.Name(), spillPrefix) || err != nil || pid == os.Getpid() {
			continue
		}
		if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid))); errors.Is(err, os.ErrNotExist) {
			os.RemoveAll(filepath.Join(outDir, e.Name()))
		}
	}
}
