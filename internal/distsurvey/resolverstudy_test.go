package distsurvey

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/respop"
)

// The smallest resolver study worth distributing: ScaleDen 2000 gives
// ~200 resolvers across the four quadrants, split over two shards.
const (
	rsScaleDen = 2000
	rsSeed     = 5
	rsShards   = 2
)

func resolverSpec(t *testing.T) core.ResolverStudySpec {
	t.Helper()
	spec, err := core.ResolverStudyConfig{
		ScaleDen: rsScaleDen, Seed: rsSeed, Shards: rsShards,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderResolverReport turns a resolver-study report into user-visible
// bytes, the byte-identical half of the equivalence contract.
func renderResolverReport(r *core.ResolverStudyReport) string {
	var b bytes.Buffer
	for _, q := range respop.Quadrants() {
		if s := r.Series[q]; s != nil {
			analysis.RenderRCodeSeries(&b, s)
		}
	}
	return b.String()
}

// TestDistributedResolverStudyEquivalence is the resolver-study twin of
// TestDistributedGoldenEquivalence: a coordinator with two workers
// produces the byte-identical §4.2 report and the same structural
// metrics as the in-process RunResolverStudy — and a survey worker (a
// different study kind entirely) is refused at the handshake.
func TestDistributedResolverStudyEquivalence(t *testing.T) {
	ctx := context.Background()
	spec := resolverSpec(t)

	inReg := obs.NewRegistry()
	inproc, err := core.RunResolverStudy(ctx, core.ResolverStudyConfig{
		ScaleDen: rsScaleDen, Seed: rsSeed, Shards: rsShards, Obs: inReg,
	})
	if err != nil {
		t.Fatal(err)
	}

	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(StudyConfig[core.ResolverShardJob, *core.ResolverShardOutcome, *core.ResolverStudyReport]{
		Spec: spec, Obs: reg, LeaseTTL: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	type serveRes struct {
		report *core.ResolverStudyReport
		err    error
	}
	serveCh := make(chan serveRes, 1)
	go func() {
		report, err := coord.Serve(ctx, ln)
		serveCh <- serveRes{report, err}
	}()

	// A survey worker — same seed, wrong study kind — must be refused at
	// the handshake: the hash preimages are disjoint by construction.
	surveySpec, err := core.SurveyConfig{Registered: 240, Seed: rsSeed, Shards: rsShards}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sn.DialStream(ctx, "coord")
	if err != nil {
		t.Fatal(err)
	}
	var hs *HandshakeError
	if err := RunWorker(ctx, conn, surveySpec, WorkerConfig{Name: "wrong-kind"}); !errors.As(err, &hs) {
		t.Fatalf("survey worker on a resolver-study coordinator returned %v, want *HandshakeError", err)
	}

	workers := make([]chan error, 2)
	for i := range workers {
		ch := make(chan error, 1)
		workers[i] = ch
		go func() {
			conn, err := sn.DialStream(ctx, "coord")
			if err != nil {
				ch <- err
				return
			}
			ch <- RunWorker(ctx, conn, spec, WorkerConfig{})
		}()
	}
	res := <-serveCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	for _, ch := range workers {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(res.report, inproc) {
		t.Errorf("distributed resolver-study report differs from in-process run")
	}
	if got, want := renderResolverReport(res.report), renderResolverReport(inproc); got != want {
		t.Errorf("rendered report differs:\n%s\nvs\n%s", got, want)
	}
	// The probe-path counters must merge to the in-process totals; the
	// sign counters legitimately differ (one cache per worker process).
	for _, name := range []string{
		"resolverstudy_probed_open_ipv4_total",
		"resolverstudy_probed_open_ipv6_total",
		"resolverstudy_probed_closed_ipv4_total",
		"resolverstudy_probed_closed_ipv6_total",
		"resolverstudy_probe_failures_total",
		"resolverstudy_shards_completed_total",
	} {
		if got, want := counterValue(reg, name), counterValue(inReg, name); got != want {
			t.Errorf("%s = %d distributed, %d in-process", name, got, want)
		}
	}
	if got := counterValue(reg, "distsurvey_leases_granted_total"); got != rsShards {
		t.Errorf("leases_granted = %d, want %d", got, rsShards)
	}
}

// TestResolverStoreRoundTrip pins the resolver-study checkpoint path:
// a written shard survives reopen, and a survey store never resumes
// from a resolver-study directory (disjoint hashes).
func TestResolverStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := resolverSpec(t)
	store, cps, _, err := OpenStore(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 {
		t.Fatalf("fresh store returned %d checkpoints", len(cps))
	}
	out := &core.ResolverShardOutcome{Index: 1, ProbeFailures: 3}
	if err := store.Write(&Checkpoint[*core.ResolverShardOutcome]{Outcome: out}); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&Checkpoint[*core.ResolverShardOutcome]{}); err == nil {
		t.Fatal("empty checkpoint accepted")
	}

	_, cps, skipped, err := OpenStore(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(cps) != 1 {
		t.Fatalf("resume returned %d checkpoints (%d skipped), want 1 (0)", len(cps), skipped)
	}
	if cps[0].Outcome == nil || cps[0].Outcome.Index != 1 || cps[0].Outcome.ProbeFailures != 3 {
		t.Fatalf("resumed checkpoint = %+v", cps[0].Outcome)
	}

	surveySpec, err := core.SurveyConfig{Registered: 240, Seed: rsSeed}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var mismatch *StateMismatchError
	if _, _, _, err := OpenStore(dir, surveySpec, true); !errors.As(err, &mismatch) {
		t.Fatalf("survey resume over resolver-study state returned %v, want *StateMismatchError", err)
	}
}
