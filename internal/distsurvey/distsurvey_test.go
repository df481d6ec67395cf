package distsurvey

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/testbed"
)

// Every test runs the same small survey so the two in-process golden
// runs (Shards=1 and Shards=3) are computed once per test binary.
const (
	goldenRegistered = 240
	goldenSeed       = 7
	goldenShards     = 3
)

var (
	goldenOnce sync.Once
	goldenErr  error
	// goldenR1 is the Shards=1 report — the strongest equivalence
	// target. goldenR3/goldenReg3 are the Shards=3 in-process run,
	// whose per-shard structure matches the distributed run exactly,
	// making its structural counters directly comparable.
	goldenR1, goldenR3 *core.SurveyReport
	goldenReg3         *obs.Registry
)

func golden(t *testing.T) (*core.SurveyReport, *core.SurveyReport, *obs.Registry) {
	t.Helper()
	goldenOnce.Do(func() {
		ctx := context.Background()
		goldenR1, goldenErr = core.RunSurvey(ctx, core.SurveyConfig{
			Registered: goldenRegistered, Seed: goldenSeed, Shards: 1,
		})
		if goldenErr != nil {
			return
		}
		goldenReg3 = obs.NewRegistry()
		goldenR3, goldenErr = core.RunSurvey(ctx, core.SurveyConfig{
			Registered: goldenRegistered, Seed: goldenSeed, Shards: goldenShards, Obs: goldenReg3,
		})
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenR1, goldenR3, goldenReg3
}

func goldenSpec(t *testing.T) core.SurveySpec {
	t.Helper()
	spec, err := core.SurveyConfig{
		Registered: goldenRegistered, Seed: goldenSeed, Shards: goldenShards,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderReport turns a report into the user-visible bytes, the
// "byte-identical" half of the golden equivalence contract.
func renderReport(r *core.SurveyReport) string {
	var b bytes.Buffer
	analysis.RenderCDF(&b, "iter", r.IterCDF, []int{0, 25, 500})
	analysis.RenderCDF(&b, "salt", r.SaltCDF, []int{0, 8, 16})
	analysis.RenderOperatorTable(&b, r.Operators.Top(10))
	fmt.Fprintf(&b, "errors=%d under_id=%d axfr=%d\n",
		r.ScanErrors, r.DomainsUnderIDTLDs, r.TLDZonesTransferred)
	return b.String()
}

func counterValue(reg *obs.Registry, name string) uint64 {
	return reg.Counter(name, "").Value()
}

// structuralCounters are the metrics that must merge to the same
// totals whether shards run in one process or many. (Sign-cache
// counters legitimately differ: each process has its own cache.)
var structuralCounters = []string{
	"survey_domains_scanned_total",
	"survey_nsec3_iteration_work_total",
	"scanner_queries_total",
	"survey_shards_completed_total",
}

type serveResult struct {
	report *core.SurveyReport
	err    error
}

// surveyCoordinator is the coordinator NewCoordinator(Config{…}) builds.
type surveyCoordinator = Coordinator[core.ShardJob, *core.ShardOutcome, *core.SurveyReport]

func serveAsync(ctx context.Context, c *surveyCoordinator, ln *netsim.StreamListener) chan serveResult {
	ch := make(chan serveResult, 1)
	go func() {
		report, err := c.Serve(ctx, ln)
		ch <- serveResult{report, err}
	}()
	return ch
}

func runWorkerAsync(ctx context.Context, sn *netsim.StreamNet, spec core.SurveySpec, name string) chan error {
	ch := make(chan error, 1)
	go func() {
		conn, err := sn.DialStream(ctx, "coord")
		if err != nil {
			ch <- err
			return
		}
		ch <- RunWorker(ctx, conn, spec, WorkerConfig{Name: name})
	}()
	return ch
}

// dialHello dials the coordinator and completes the handshake,
// returning the wire for manual protocol driving.
func dialHello(ctx context.Context, t *testing.T, sn *netsim.StreamNet, spec core.SurveySpec, opts ...netsim.StreamDialOption) *wireConn {
	t.Helper()
	conn, err := sn.DialStream(ctx, "coord", opts...)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireConn{conn: conn}
	if err := w.write(ctx, &Frame{
		Type: TypeHello, Version: ProtocolVersion, ConfigHash: spec.Hash(), Worker: "test-worker",
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := w.read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok.Type != TypeHelloOK {
		t.Fatalf("handshake answered %+v", ok)
	}
	return w
}

// leaseJob requests and returns one lease.
func leaseJob(ctx context.Context, t *testing.T, w *wireConn) *Frame {
	t.Helper()
	if err := w.write(ctx, &Frame{Type: TypeLease}); err != nil {
		t.Fatal(err)
	}
	f, err := w.read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TypeJob || len(f.Job) == 0 {
		t.Fatalf("lease answered %+v", f)
	}
	return f
}

// surveyJob decodes a job frame's survey shard job.
func surveyJob(t *testing.T, f *Frame) core.ShardJob {
	t.Helper()
	var job core.ShardJob
	if err := json.Unmarshal(f.Job, &job); err != nil {
		t.Fatal(err)
	}
	return job
}

// mustJSON encodes v for a hand-built frame.
func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// executeShardAsWorker runs one leased shard exactly the way RunWorker
// does — fresh per-job registry, shared cache — and streams the result.
func executeShardAsWorker(ctx context.Context, t *testing.T, w *wireConn, f *Frame, cache *testbed.SignCache) int {
	t.Helper()
	reg := obs.NewRegistry()
	out, err := core.NewShardRunner(reg, nil, cache).Execute(ctx, surveyJob(t, f))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.write(ctx, &Frame{
		Type: TypeResult, Shard: out.Index, Lease: f.Lease, Outcome: mustJSON(t, out), Obs: reg.Snapshot(),
	}); err != nil {
		t.Fatal(err)
	}
	ack, err := w.read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != TypeResultOK || !ack.Accepted {
		t.Fatalf("result answered %+v", ack)
	}
	return out.Index
}

// TestDistributedGoldenEquivalence is the tentpole contract: a
// coordinator with two workers produces the byte-identical report and
// the same structural metrics as the in-process pipeline — and a
// worker from a different survey is refused at the handshake.
func TestDistributedGoldenEquivalence(t *testing.T) {
	r1, r3, reg3 := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	// A worker running different survey flags must be turned away with
	// a typed handshake error before any lease is granted.
	foreign, err := core.SurveyConfig{Registered: goldenRegistered, Seed: goldenSeed + 1, Shards: goldenShards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sn.DialStream(ctx, "coord")
	if err != nil {
		t.Fatal(err)
	}
	var hs *HandshakeError
	if err := RunWorker(ctx, conn, foreign, WorkerConfig{Name: "foreign"}); !errors.As(err, &hs) {
		t.Fatalf("mismatched worker returned %v, want *HandshakeError", err)
	}

	w1 := runWorkerAsync(ctx, sn, spec, "w1")
	w2 := runWorkerAsync(ctx, sn, spec, "w2")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	for _, ch := range []chan error{w1, w2} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("distributed report differs from single-process Shards=1:\nwant %+v\ngot  %+v", r1, res.report)
	}
	if !reflect.DeepEqual(res.report, r3) {
		t.Errorf("distributed report differs from in-process Shards=%d", goldenShards)
	}
	if got, want := renderReport(res.report), renderReport(r1); got != want {
		t.Errorf("rendered report differs:\n%s\nvs\n%s", got, want)
	}
	for _, name := range structuralCounters {
		if got, want := counterValue(reg, name), counterValue(reg3, name); got != want {
			t.Errorf("%s = %d distributed, %d in-process", name, got, want)
		}
	}
	if got := counterValue(reg, "survey_shards_completed_total"); got != goldenShards {
		t.Errorf("survey_shards_completed_total = %d, want %d", got, goldenShards)
	}
	if got := counterValue(reg, "distsurvey_workers_connected_total"); got != 2 {
		t.Errorf("workers_connected = %d, want 2 (the foreign worker must not count)", got)
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards {
		t.Errorf("leases_granted = %d, want %d", got, goldenShards)
	}
	if got := counterValue(reg, "distsurvey_results_rejected_total"); got != 0 {
		t.Errorf("results_rejected = %d, want 0", got)
	}
}

// TestWorkerDeathReLease kills a worker that holds a lease (conn drop
// mid-shard) and requires the coordinator to re-lease the shard and
// still produce the identical report.
func TestWorkerDeathReLease(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	// The doomed worker leases shard 0, then dies without a word.
	doomed := dialHello(ctx, t, sn, spec)
	f := leaseJob(ctx, t, doomed)
	if job := surveyJob(t, f); job.Plan.Index != 0 {
		t.Fatalf("first lease granted shard %d, want 0", job.Plan.Index)
	}
	if err := doomed.conn.Close(); err != nil {
		t.Fatal(err)
	}

	wch := runWorkerAsync(ctx, sn, spec, "survivor")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after worker death differs from single-process run")
	}
	if got, want := renderReport(res.report), renderReport(r1); got != want {
		t.Errorf("rendered report differs:\n%s\nvs\n%s", got, want)
	}
	if got := counterValue(reg, "distsurvey_leases_expired_total"); got != 1 {
		t.Errorf("leases_expired = %d, want 1", got)
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards+1 {
		t.Errorf("leases_granted = %d, want %d (one re-lease)", got, goldenShards+1)
	}
}

// TestPartialResultFrameReLease cuts a worker's connection partway
// through its result frame — the torn-write case — and requires the
// coordinator to discard the partial frame, re-lease the shard, and
// never double-merge.
func TestPartialResultFrameReLease(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	// Budget the doomed worker's writes so the hello and lease frames
	// go through whole and the result frame is cut 10 bytes in.
	frameBytes := func(f *Frame) int {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return 4 + len(data) + 1
	}
	budget := frameBytes(&Frame{
		Type: TypeHello, Version: ProtocolVersion, ConfigHash: spec.Hash(), Worker: "test-worker",
	}) + frameBytes(&Frame{Type: TypeLease}) + 10

	cut := dialHello(ctx, t, sn, spec, netsim.WithWriteLimit(budget))
	f := leaseJob(ctx, t, cut)
	regCut := obs.NewRegistry()
	out, err := core.NewShardRunner(regCut, nil, nil).Execute(ctx, surveyJob(t, f))
	if err != nil {
		t.Fatal(err)
	}
	werr := cut.write(ctx, &Frame{
		Type: TypeResult, Shard: out.Index, Lease: f.Lease, Outcome: mustJSON(t, out), Obs: regCut.Snapshot(),
	})
	if werr == nil {
		t.Fatal("result write survived a 10-byte budget; the fault injection did not fire")
	}

	wch := runWorkerAsync(ctx, sn, spec, "survivor")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after torn result frame differs from single-process run")
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards+1 {
		t.Errorf("leases_granted = %d, want %d (the torn shard re-leases)", got, goldenShards+1)
	}
	if got := counterValue(reg, "survey_shards_completed_total"); got != goldenShards {
		t.Errorf("survey_shards_completed_total = %d, want %d (no double merge)", got, goldenShards)
	}
}

// TestLeaseExpiryReLeasesSilentWorker exercises the slow re-lease
// path: a worker that holds its connection open but never heartbeats
// loses its lease after the TTL.
func TestLeaseExpiryReLeasesSilentWorker(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	serveCh := serveAsync(ctx, coord, ln)

	silent := dialHello(ctx, t, sn, spec)
	defer silent.conn.Close()
	leaseJob(ctx, t, silent) // shard 0, then silence: no heartbeat, no result

	wch := runWorkerAsync(ctx, sn, spec, "survivor")
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after lease expiry differs from single-process run")
	}
	if got := counterValue(reg, "distsurvey_leases_expired_total"); got != 1 {
		t.Errorf("leases_expired = %d, want 1", got)
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != goldenShards+1 {
		t.Errorf("leases_granted = %d, want %d", got, goldenShards+1)
	}
}

// TestCoordinatorKilledAndResumed is the crash-safety half of the
// golden test: two shards complete and checkpoint, the coordinator is
// killed, and a resumed coordinator finishes only the remaining shard
// yet produces the byte-identical report and structural metrics.
func TestCoordinatorKilledAndResumed(t *testing.T) {
	r1, _, reg3 := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()
	state := filepath.Join(t.TempDir(), "state")

	// Phase 1: two shards checkpoint, then the coordinator dies.
	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(Config{Spec: spec, Obs: obs.NewRegistry(), StateDir: state, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(ctx)
	serveCh := serveAsync(ctx1, coord1, ln)
	w := dialHello(ctx, t, sn, spec)
	cache := testbed.NewSignCache()
	for i := 0; i < 2; i++ {
		f := leaseJob(ctx, t, w)
		if got := executeShardAsWorker(ctx, t, w, f, cache); got != i {
			t.Fatalf("phase 1 executed shard %d, want %d", got, i)
		}
	}
	if err := w.conn.Close(); err != nil {
		t.Fatal(err)
	}
	kill()
	if res := <-serveCh; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("killed coordinator returned %v, want context.Canceled", res.err)
	}

	// A fresh (non-resume) run over the same state dir must refuse.
	var exists *StateExistsError
	if _, err := NewCoordinator(Config{Spec: spec, StateDir: state}); !errors.As(err, &exists) {
		t.Fatalf("fresh run over live state returned %v, want *StateExistsError", err)
	}
	// So must a resume under different survey flags.
	foreign, err := core.SurveyConfig{Registered: goldenRegistered, Seed: goldenSeed + 1, Shards: goldenShards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var mismatch *StateMismatchError
	if _, err := NewCoordinator(Config{Spec: foreign, StateDir: state, Resume: true}); !errors.As(err, &mismatch) {
		t.Fatalf("foreign resume returned %v, want *StateMismatchError", err)
	}
	if mismatch.Got != spec.Hash() || mismatch.Want != foreign.Hash() {
		t.Fatalf("mismatch error carries %q/%q", mismatch.Got, mismatch.Want)
	}

	// Phase 2: resume recovers the checkpoints and a real worker
	// finishes the one remaining shard.
	sn2 := netsim.NewStreamNet()
	ln2, err := sn2.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	coord2, err := NewCoordinator(Config{Spec: spec, Obs: reg2, StateDir: state, Resume: true, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord2.CheckpointsLoaded(); got != 2 {
		t.Fatalf("resume loaded %d checkpoints, want 2", got)
	}
	serveCh2 := serveAsync(ctx, coord2, ln2)
	wch := runWorkerAsync(ctx, sn2, spec, "finisher")
	res := <-serveCh2
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("resumed report differs from single-process run")
	}
	if got, want := renderReport(res.report), renderReport(r1); got != want {
		t.Errorf("rendered resumed report differs:\n%s\nvs\n%s", got, want)
	}
	for _, name := range structuralCounters {
		if got, want := counterValue(reg2, name), counterValue(reg3, name); got != want {
			t.Errorf("%s = %d resumed, %d in-process", name, got, want)
		}
	}
	if got := counterValue(reg2, "distsurvey_checkpoints_loaded_total"); got != 2 {
		t.Errorf("checkpoints_loaded = %d, want 2", got)
	}
	if got := counterValue(reg2, "distsurvey_leases_granted_total"); got != 1 {
		t.Errorf("leases_granted = %d, want 1 (only the unfinished shard)", got)
	}
}

// TestResumeSkipsCorruptCheckpoints: truncated or garbage checkpoint
// files are skipped — their shards simply re-run — and the report is
// still identical.
func TestResumeSkipsCorruptCheckpoints(t *testing.T) {
	r1, _, _ := golden(t)
	spec := goldenSpec(t)
	ctx := context.Background()
	state := filepath.Join(t.TempDir(), "state")

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(Config{Spec: spec, Obs: obs.NewRegistry(), StateDir: state, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(ctx)
	serveCh := serveAsync(ctx1, coord1, ln)
	w := dialHello(ctx, t, sn, spec)
	cache := testbed.NewSignCache()
	for i := 0; i < 2; i++ {
		executeShardAsWorker(ctx, t, w, leaseJob(ctx, t, w), cache)
	}
	if err := w.conn.Close(); err != nil {
		t.Fatal(err)
	}
	kill()
	<-serveCh

	// Tear one checkpoint mid-file and replace the other with garbage.
	truncated := filepath.Join(state, "shard-0000.json")
	data, err := os.ReadFile(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(state, "shard-0001.json"), []byte("{definitely not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	sn2 := netsim.NewStreamNet()
	ln2, err := sn2.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	coord2, err := NewCoordinator(Config{Spec: spec, Obs: reg2, StateDir: state, Resume: true, LeaseTTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord2.CheckpointsLoaded(); got != 0 {
		t.Fatalf("resume loaded %d corrupt checkpoints, want 0", got)
	}
	serveCh2 := serveAsync(ctx, coord2, ln2)
	wch := runWorkerAsync(ctx, sn2, spec, "redo")
	res := <-serveCh2
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wch; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.report, r1) {
		t.Errorf("report after corrupt-checkpoint redo differs from single-process run")
	}
	if got := counterValue(reg2, "distsurvey_checkpoints_skipped_total"); got != 2 {
		t.Errorf("checkpoints_skipped = %d, want 2", got)
	}
	if got := counterValue(reg2, "distsurvey_leases_granted_total"); got != goldenShards {
		t.Errorf("leases_granted = %d, want %d (every shard redone)", got, goldenShards)
	}
	if got := counterValue(reg2, "survey_shards_completed_total"); got != goldenShards {
		t.Errorf("survey_shards_completed_total = %d, want %d (skip-and-redo, never double-merge)", got, goldenShards)
	}
}
