package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many set-up-only child processes a measured run
// starts before its jobs; setup_s is the median over those and the
// jobs' own set-ups.
const setupReps = 5

// childTimeout bounds one child process; a run never waits on a hung
// child beyond it.
const childTimeout = 170 * time.Second

// record is what one child process reports to the parent.
type record struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	OpP50US    float64            `json:"op_p50_us"`
	OpP99US    float64            `json:"op_p99_us"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Mix        map[string]float64 `json:"mix,omitempty"`
	// MaxRSSMB is filled in by the parent from the child's rusage.
	MaxRSSMB float64 `json:"-"`
}

// spawn runs one phase of w in a fresh child process and returns its
// record. The child's set-up time is measured from the moment the
// parent starts it.
//
//repro:nondeterministic the spawn timestamp feeds set-up timing, never program output
func spawn(w *workload, mode string, seed uint64) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-child", mode)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "PERFBENCH_SPAWN_NS="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var r record
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("child %s: bad record: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &r, nil
}

// runMeasured is the untraced run: set-up-only children, then jobs in
// fresh children within the time budget (at least one), then the
// correctness reference.
//
//repro:nondeterministic the measurement budget is wall-clock by definition
func runMeasured(w *workload, seed uint64, seconds float64) (*result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r, err := spawn(w, "setup", seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	// A job starts only if one more of the last job's length still fits
	// the budget, so a run never overshoots by most of a long job.
	start := time.Now()
	var jobs []*record
	var last time.Duration
	for len(jobs) == 0 || time.Since(start)+last <= time.Duration(seconds*float64(time.Second)) {
		t0 := time.Now()
		r, err := spawn(w, "job", seed)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		jobs = append(jobs, r)
		setups = append(setups, r.SetupS)
	}
	ref := ""
	if w.ref != nil {
		r, err := spawn(w, "ref", seed)
		if err != nil {
			return nil, err
		}
		ref = r.Digest
	}

	res := &result{Correct: true, Metrics: make(map[string]metric)}
	var rate, cpu, alloc, rss, p50, p99, walls []float64
	for _, j := range jobs {
		res.Attempted += j.Ops
		failed := j.Failed
		if ref != "" && j.Digest != ref {
			fmt.Fprintf(os.Stderr, "perfbench: %s job digest %s != reference %s\n", w.name, j.Digest, ref)
			failed = j.Ops
		}
		if failed > 0 {
			res.Correct = false
		}
		res.Failed += failed
		rate = append(rate, float64(j.Ops)/j.WallS)
		cpu = append(cpu, j.CPUS)
		alloc = append(alloc, float64(j.AllocBytes)/(1<<20))
		rss = append(rss, j.MaxRSSMB)
		p50 = append(p50, j.OpP50US)
		p99 = append(p99, j.OpP99US)
		walls = append(walls, j.WallS*1e6)
	}
	if !w.perOpLatency {
		// The job is the operation: its latency quantiles are taken
		// over the run's jobs.
		p50, p99 = walls, []float64{quantile(walls, 0.99)}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d jobs, %d set-ups\n", w.name, len(jobs), len(setups))
	for name, v := range map[string][]float64{
		"setup_s": setups, "ops_per_s": rate, "cpu_s": cpu, "alloc_mb": alloc,
		"peak_rss_mb": rss, "op_p50_us": p50, "op_p99_us": p99,
	} {
		res.Metrics[name] = metric{median(v), endToEnd[name]}
	}
	return res, nil
}

// endToEnd maps every end-to-end metric to its unit.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"ops_per_s":   "1/s",
	"cpu_s":       "s",
	"alloc_mb":    "MiB",
	"peak_rss_mb": "MiB",
	"op_p50_us":   "us",
	"op_p99_us":   "us",
}

// runTraced is the traced run: one untraced job for the overhead
// baseline, then the traced child, whose output must match it.
func runTraced(w *workload, seed uint64) (*result, error) {
	base, err := spawn(w, "job", seed)
	if err != nil {
		return nil, err
	}
	tr, err := spawn(w, "traced", seed)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: tr.Ops, Failed: tr.Failed, Metrics: make(map[string]metric)}
	if tr.Digest != base.Digest {
		fmt.Fprintf(os.Stderr, "perfbench: %s traced digest %s != untraced %s\n", w.name, tr.Digest, base.Digest)
		res.Failed = tr.Ops
	}
	res.Correct = res.Failed == 0 && base.Failed == 0
	tr.Layers["trace.overhead_ratio"] = tr.WallS / base.WallS
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{tr.Layers[l.name], l.unit}
	}
	if len(tr.Mix) > 0 {
		line, _ := json.Marshal(map[string]any{"authoritative_query_mix": tr.Mix})
		fmt.Println(string(line))
	}
	return res, nil
}

// runChild executes one phase of w in this process and prints its
// record as the last line of standard output.
func runChild(w *workload, mode string, seed uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	var rec *record
	switch mode {
	case "setup", "job":
		run, err := w.setup(ctx, seed)
		if err != nil {
			return err
		}
		setup := sinceSpawn()
		if mode == "setup" {
			rec = &record{SetupS: setup}
			break
		}
		rec, err = measureJob(ctx, run)
		if err != nil {
			return err
		}
		rec.SetupS = setup
	case "ref":
		d, err := w.ref(ctx, seed)
		if err != nil {
			return err
		}
		rec = &record{Digest: d}
	case "traced":
		var err error
		if rec, err = w.traced(ctx, seed); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// jobOut is what one job of a workload produced.
type jobOut struct {
	ops, failed int
	digest      string
	// lat holds per-operation latencies where the workload has finer
	// operations than the job (authserve queries); otherwise the job
	// itself is the operation.
	lat []time.Duration
}

// measureJob times one job: wall clock, process CPU and bytes
// allocated over exactly the job.
//
//repro:nondeterministic job timing is the measurement itself
func measureJob(ctx context.Context, run func(context.Context) (*jobOut, error)) (*record, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := run(ctx)
	wall := time.Since(t0)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	rec := &record{
		WallS:      wall.Seconds(),
		CPUS:       c1 - c0,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		Ops:        out.ops,
		Failed:     out.failed,
		Digest:     out.digest,
	}
	lat := out.lat
	if len(lat) == 0 {
		lat = []time.Duration{wall}
	}
	rec.OpP50US = quantileDur(lat, 0.50)
	rec.OpP99US = quantileDur(lat, 0.99)
	return rec, nil
}

// sinceSpawn returns seconds since the parent started this process.
//
//repro:nondeterministic set-up time is measured against the spawn timestamp
func sinceSpawn() float64 {
	ns, err := strconv.ParseInt(os.Getenv("PERFBENCH_SPAWN_NS"), 10, 64)
	if err != nil {
		return 0
	}
	return float64(time.Now().UnixNano()-ns) / 1e9
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (nearest rank) of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quantileDur returns the q-quantile (nearest rank) of d in
// microseconds.
func quantileDur(d []time.Duration, q float64) float64 {
	us := make([]float64, len(d))
	for i, v := range d {
		us[i] = float64(v) / 1e3
	}
	return quantile(us, q)
}
