// Command perfbench is the repository's benchmark. It runs one named
// workload against the library's public entry points, checks that the
// program's output is correct, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every measured job runs in a fresh child process of this binary, so
// peak RSS, CPU time and set-up time are per process and no
// process-wide cache carries over from one job to the next. See
// README.md for the workloads, metrics and the recorded trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		child    = flag.String("child", "", "internal: run one phase in this process (setup|job|ref|traced)")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(w, *child, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", *workload, *child, err)
			os.Exit(1)
		}
		return
	}
	env := describeEnv()
	line, _ := json.Marshal(map[string]any{"env": env, "workload": w.name, "seed": *seed, "trace": *trace})
	fmt.Println(string(line))

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runMeasured(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict for one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes one human-readable line per metric, the failure ratio,
// and then the JSON verdict as the last line.
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(f, "%-34s %16.6g %s\n", "fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio")
	line, _ := json.Marshal(r)
	fmt.Fprintln(f, string(line))
}
