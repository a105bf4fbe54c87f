// Command perfbench measures the Sailor planning service the way a client
// sees it: a real sailor.Server on loopback over a durable data dir,
// composed as cmd/sailor-serve composes it, driven through sailor.Client.
// Every layer is measured from outside, through public functions and
// seams (see probes.go). Run it from the root of a checkout through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload cold-geo --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-churn --seed 3 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload all --seed 1           # every workload
//	bash perfbench/run.sh --workload serve-churn --ablate without-speculation
//	bash perfbench/run.sh --workload fleet-storm --repeat 5 # medians and quartiles
//	bash perfbench/run.sh --selftest
//
// The last line of a single run is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it name every metric with unit and sample
// count. A mismatch against the output oracle exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

var workloads = []string{"serve-churn", "cold-geo", "fleet-storm"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", `workload: serve-churn, cold-geo, fleet-storm, or "all"`)
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics and write the span file")
	ablate := fs.String("ablate", "", "flip one ServiceConfig knob: without-speculation, without-incremental, sequential-rebalance")
	repeat := fs.Int("repeat", 0, "run N times with seeds seed..seed+N-1 and print each metric's median and quartiles")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<N>.json)")
	selftest := fs.Bool("selftest", false, "run a short pass of every workload through the oracle, and check a deliberately altered plan is flagged")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "run"))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *selftest {
		return selfTest(workDir)
	}
	if *ablate != "" {
		if _, ok := ablations[*ablate]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown -ablate %q\n", *ablate)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(args, *workload, *seed, *repeat)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	// A run must finish well inside three minutes;
	// a hang fails the run instead of stalling it.
	watchdog := time.AfterFunc(170*time.Second*time.Duration(len(names)), func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(1)
	})
	defer watchdog.Stop()
	code := 0
	for _, w := range names {
		cfg := &config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
			ablate: *ablate, setups: setupRuns, setupTime: setupTime, spans: *spans, workDir: workDir}
		o, err := runOne(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		if cfg.trace {
			fmt.Printf("spans: %s (%d spans)\n", spansPath(cfg), len(o.spans))
		}
		if !report(cfg, o) {
			code = 1
		}
	}
	return code
}

// selfTest runs every workload briefly, untraced and traced, through the
// oracle, then again with one served plan altered, which must be flagged.
func selfTest(workDir string) int {
	failed := false
	for _, w := range workloads {
		for _, tc := range []struct {
			trace, corrupt bool
		}{{false, false}, {true, false}, {false, true}} {
			cfg := &config{workload: w, seed: 1, seconds: 2, trace: tc.trace, setups: 1,
				corrupt: tc.corrupt, workDir: workDir, spans: filepath.Join(filepath.Dir(workDir), "spans", "selftest-"+w+".json")}
			o, err := runOne(cfg)
			switch {
			case err != nil:
				fmt.Printf("selftest %s trace=%v corrupt=%v: error: %v\n", w, tc.trace, tc.corrupt, err)
				failed = true
			case tc.corrupt && len(o.mismatches) == 0:
				fmt.Printf("selftest %s: an altered plan was NOT flagged\n", w)
				failed = true
			case !tc.corrupt && (len(o.mismatches) > 0 || o.failed > 0 || o.attempted == 0):
				fmt.Printf("selftest %s trace=%v: attempted %d failed %d mismatches %v\n", w, tc.trace, o.attempted, o.failed, o.mismatches)
				failed = true
			default:
				fmt.Printf("selftest %s trace=%v corrupt=%v: ok (attempted %d, mismatches %d)\n", w, tc.trace, tc.corrupt, o.attempted, len(o.mismatches))
			}
		}
	}
	if failed {
		fmt.Println("selftest: FAIL")
		return 1
	}
	fmt.Println("selftest: ok")
	return 0
}

// repeatRuns runs the benchmark n times as child processes (so each run
// has a fresh heap and a fresh peak RSS), with consecutive seeds, and
// prints each metric's median, quartiles and quartile spread — the numbers
// BENCHMARK.json's bounds are set from.
func repeatRuns(args []string, workload string, seed int64, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var base []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch a {
		case "-repeat", "--repeat", "-seed", "--seed":
			i++
			continue
		}
		if bytes.HasPrefix([]byte(a), []byte("-repeat=")) || bytes.HasPrefix([]byte(a), []byte("--repeat=")) ||
			bytes.HasPrefix([]byte(a), []byte("-seed=")) || bytes.HasPrefix([]byte(a), []byte("--seed=")) {
			continue
		}
		base = append(base, a)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, append(append([]string(nil), base...), "--seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Printf("seed %d: %v\n", s, err)
			code = 1
		}
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		last := ""
		for sc.Scan() {
			last = sc.Text()
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Printf("seed %d: no result line\n", s)
			code = 1
			continue
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s over %d runs:\n", workload, n)
	fmt.Printf("  %-40s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range keys {
		q1, q2, q3 := quartiles(values[k])
		fmt.Printf("  %-40s %12.6g %12.6g %12.6g %7.1f%% %s  [%s]\n", k, q1, q2, q3, 100*ratio(q3-q1, q2), units[k], fmtList(values[k]))
	}
	return code
}
