package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// assertGone checks that nothing of a finished run remains: every listener
// address refuses connections, no spill root is left in outDir, and this
// process has no child processes.
func assertGone(t *testing.T, addrs []string, outDir string) {
	t.Helper()
	if len(addrs) == 0 {
		t.Fatal("the run recorded no listener addresses")
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections after the run", a)
		}
	}
	spills, _ := filepath.Glob(filepath.Join(outDir, spillPrefix+"*"))
	if len(spills) > 0 {
		t.Errorf("spill directories left behind: %v", spills)
	}
	if kids := children(t); len(kids) > 0 {
		t.Errorf("child processes left behind: %v", kids)
	}
}

// children lists the live child processes of this process.
func children(t *testing.T) []string {
	t.Helper()
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range tasks {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited
		}
		out = append(out, strings.Fields(string(b))...)
	}
	return out
}

func TestRunsLeaveNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs the closed loop")
	}
	// The declared metrics, by the run mode that must report them.
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var decl struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, want := range [][]declared{decl.EndToEnd, decl.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				out := t.TempDir()
				code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "3", "--trace", fmt.Sprint(trace), "--out", out})
				if code != 0 {
					t.Fatalf("run exited %d", code)
				}
				b, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("report-%s-seed5-trace%d.json", w.name, trace)))
				if err != nil {
					t.Fatal(err)
				}
				var rep struct {
					Listeners []string `json:"listeners"`
					Result    struct {
						Correct bool `json:"correct"`
						Metrics map[string]struct {
							Unit string `json:"unit"`
						} `json:"metrics"`
					} `json:"result"`
				}
				if err := json.Unmarshal(b, &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct {
					t.Error("correctness gate failed")
				}
				if len(rep.Result.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(rep.Result.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := rep.Result.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("metric %s (%s) missing or in another unit", d.Name, d.Unit)
					}
				}
				assertGone(t, rep.Listeners, out)
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
}

// TestStoppedRunCleansUp builds the binary, stops it mid-run by SIGTERM and
// by its own deadline, and checks that it exits non-zero without a result
// and leaves no listener, spill directory or process behind.
func TestStoppedRunCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, how := range []string{"sigterm", "deadline"} {
		t.Run(how, func(t *testing.T) {
			out := t.TempDir()
			args := []string{"--workload", "http-read-write", "--seconds", "30", "--out", out}
			if how == "deadline" {
				args = append(args, "--deadline", "3s")
			}
			cmd := exec.Command(bin, args...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var addrs []string
			boots := 0
			signalled := how != "sigterm"
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				if a, ok := strings.CutPrefix(sc.Text(), "perfbench: listening on "); ok {
					addrs = append(addrs, strings.Fields(a)...)
					if boots++; !signalled && boots == setups {
						time.Sleep(2 * time.Second) // past the last set-up, into the timed phase
						if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
							t.Fatal(err)
						}
						signalled = true
					}
				}
			}
			if err := cmd.Wait(); err == nil {
				t.Fatal("a stopped run exited 0")
			}
			if d := time.Since(start); d > 25*time.Second {
				t.Errorf("the stopped run took %v to exit; it was asked to measure 30s", d)
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("a stopped run printed a result:\n%s", stdout.String())
			}
			assertGone(t, addrs, out)
		})
	}
}

// TestClusterPlacementIsBalanced checks that, on the ring the servers
// themselves build, every seed's cluster streams fall evenly on the nodes
// and on the (owner, standby) pairs, and that every sender owns a stream
// on each node.
func TestClusterPlacementIsBalanced(t *testing.T) {
	w, err := lookupWorkload("cluster-multi")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := boot(w.spec(1), w.nodes, w.replicas, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	ring := sys.nodes[0].srv.Ring()
	for seed := int64(1); seed <= 20; seed++ {
		ids, err := w.streamIDs(seed)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]int{}
		pairs := map[string]int{}
		for _, id := range ids {
			succ := ring.Successors(id, w.replicas)
			owners[succ[0].ID]++
			pairs[succ[0].ID+"/"+succ[1].ID]++
		}
		if len(owners) != w.nodes || len(pairs) != w.nodes*(w.nodes-1) {
			t.Fatalf("seed %d: owners %v, pairs %v", seed, owners, pairs)
		}
		for _, n := range owners {
			if n != w.streams/w.nodes {
				t.Fatalf("seed %d: owners %v", seed, owners)
			}
		}
		for _, n := range pairs {
			if n != w.streams/(w.nodes*(w.nodes-1)) {
				t.Fatalf("seed %d: pairs %v", seed, pairs)
			}
		}
		for s := 0; s < w.senders(); s++ {
			on := map[string]bool{}
			for _, i := range w.owned(s) {
				on[ring.Owner(ids[i]).ID] = true
			}
			if len(on) != w.nodes {
				t.Fatalf("seed %d: sender %d owns streams on %d nodes", seed, s, len(on))
			}
		}
	}
}
