package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestSurveyReplicaEquivalence pins that the traced survey replica
// produces core.RunSurvey's report for the same inputs, so the
// per-layer numbers describe the program the untraced runs measure.
func TestSurveyReplicaEquivalence(t *testing.T) {
	ctx := context.Background()
	cfg := core.SurveyConfig{Registered: 240, Seed: 7, Shards: 3, Signing: core.SigningLazy}
	want, err := core.RunSurvey(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplica()
	got, err := rp.runSurvey(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replica survey report differs from core.RunSurvey:\ngot  %+v\nwant %+v", got, want)
	}
	if g, w := surveyDigest(got), surveyDigest(want); g != w {
		t.Errorf("rendered digest %s, want %s", g, w)
	}
	if len(rp.domainLat) != cfg.Registered {
		t.Errorf("timed %d domains, want %d", len(rp.domainLat), cfg.Registered)
	}
	if ix := rp.rec.index(); len(ix.durations(kindAuth)) == 0 || len(ix.durations(kindResolver)) == 0 {
		t.Error("replica recorded no resolver or authoritative spans")
	}
}

// TestResolverReplicaEquivalence is the resolver-study twin, at the
// smallest fleet respop deploys.
func TestResolverReplicaEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys and probes a 200-resolver fleet twice")
	}
	ctx := context.Background()
	cfg := core.ResolverStudyConfig{ScaleDen: 1 << 20, Seed: 7, Shards: 2}
	want, err := core.RunResolverStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplica()
	got, err := rp.runResolverStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replica resolver-study report differs from core.RunResolverStudy:\ngot  %+v\nwant %+v", got, want)
	}
	if g, w := resolverDigest(got), resolverDigest(want); g != w {
		t.Errorf("rendered digest %s, want %s", g, w)
	}
	if got.ProbeFailures != 0 {
		t.Errorf("%d probe failures", got.ProbeFailures)
	}
}

// TestRoundTemplateMatchesResolverTraffic pins the authserve round to
// the traffic one fresh validating resolver sends: the query mix one
// traced probe records equals the round's.
func TestRoundTemplateMatchesResolverTraffic(t *testing.T) {
	tmpl := roundTemplate()
	if len(tmpl) != 459 {
		t.Fatalf("round has %d queries, want 459", len(tmpl))
	}
	ctx := context.Background()
	h, err := buildAuthWorld(7)
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplica()
	rp.wrapWorld(h)
	out, err := serveRounds(ctx, h.Net, tmpl, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.ops != len(tmpl) {
		t.Fatalf("one round: %d of %d queries failed their check", out.failed, out.ops)
	}
	round := rp.rec.index().queryMix()

	cfg := core.ResolverStudyConfig{ScaleDen: 1 << 20, Seed: 7, Shards: 50}
	spec, err := cfg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := core.PlanResolverJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	study := newReplica()
	first := jobs[0]
	first.Plan.Size = 1
	if _, err := study.runResolverJobs(ctx, spec, []core.ResolverShardJob{first}); err != nil {
		t.Fatal(err)
	}
	if probe := study.rec.index().queryMix(); !reflect.DeepEqual(probe, round) {
		t.Errorf("authserve round mix differs from one resolver's probe:\nround %v\nprobe %v", round, probe)
	}
}

// TestBenchmarkManifestMatches pins BENCHMARK.json's metric lists to
// what the benchmark prints.
func TestBenchmarkManifestMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(m.PerLayer), len(perLayer))
	}
	for i, l := range m.PerLayer {
		if l.Name != perLayer[i].name || l.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, traced run prints %s/%s", i, l.Name, l.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, e := range m.EndToEnd {
		if u, ok := endToEnd[e.Name]; !ok || u != e.Unit {
			t.Errorf("end_to_end %s/%s is not printed by an untraced run", e.Name, e.Unit)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, untraced runs print %d", len(m.EndToEnd), len(endToEnd))
	}
}
