package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
)

// TestEngineOutcomeJSONRoundTrip drives the plan/execute/merge layers
// the way the distributed runner does — every ShardOutcome through a
// JSON round trip, merged out of order — and requires the exact report
// the in-process RunSurvey produces. This is the in-memory half of the
// distributed golden equivalence test.
func TestEngineOutcomeJSONRoundTrip(t *testing.T) {
	cfg := SurveyConfig{Registered: 600, Seed: 5, Shards: 3}
	want, err := RunSurvey(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := cfg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := PlanJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("planned %d jobs, want 3", len(jobs))
	}
	// A job itself must survive the wire: the coordinator sends it to
	// workers as JSON.
	var decodedJobs []ShardJob
	for _, job := range jobs {
		data, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		var dj ShardJob
		if err := json.Unmarshal(data, &dj); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(job, dj) {
			t.Fatalf("job drifted through JSON: %+v vs %+v", job, dj)
		}
		decodedJobs = append(decodedJobs, dj)
	}

	runner := NewShardRunner(nil, nil, nil)
	outcomes := make([]*ShardOutcome, len(decodedJobs))
	for i, job := range decodedJobs {
		out, err := runner.Execute(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		decoded := &ShardOutcome{}
		if err := json.Unmarshal(data, decoded); err != nil {
			t.Fatal(err)
		}
		outcomes[i] = decoded
	}

	builder := NewReportBuilder(spec)
	for i := len(outcomes) - 1; i >= 0; i-- { // merge out of order
		if err := builder.Add(outcomes[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := builder.Finish()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded+reordered report differs from RunSurvey:\nwant %+v\ngot  %+v", want, got)
	}
	// Rendered bytes too: DeepEqual can miss nothing here, but the
	// render path is the user-visible contract.
	var a, b bytes.Buffer
	analysis.RenderCDF(&a, "iter", want.IterCDF, []int{0, 25, 500})
	analysis.RenderCDF(&b, "iter", got.IterCDF, []int{0, 25, 500})
	analysis.RenderOperatorTable(&a, want.Operators.Top(10))
	analysis.RenderOperatorTable(&b, got.Operators.Top(10))
	if a.String() != b.String() {
		t.Fatalf("rendered output differs:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestReportBuilderRejectsDuplicate pins the never-double-merge
// enforcement point re-leased and resumed shards rely on.
func TestReportBuilderRejectsDuplicate(t *testing.T) {
	spec, err := SurveyConfig{Registered: 100, Seed: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b := NewReportBuilder(spec)
	out := &ShardOutcome{Index: 2, Agg: nil, Operators: nil}
	if err := b.Add(out); err != nil {
		t.Fatal(err)
	}
	err = b.Add(out)
	var dup *DuplicateShardError
	if !errors.As(err, &dup) || dup.Index != 2 {
		t.Fatalf("second Add returned %v, want *DuplicateShardError{2}", err)
	}
	if !b.Merged(2) || b.Merged(0) || b.Merged(1) || b.Merged(3) {
		t.Fatal("merged bookkeeping wrong: want shard 2, and only shard 2, merged")
	}
}

// TestSurveySpecHash: the hash pins exactly the result-affecting
// fields — runtime throttles may change across a resume.
func TestSurveySpecHash(t *testing.T) {
	base, err := SurveyConfig{Registered: 600, Seed: 5, Shards: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Workers = 3
	same.QPS = 99
	if base.Hash() != same.Hash() {
		t.Error("Workers/QPS changed the config hash; resumes with different throttles would be refused")
	}
	for _, mut := range []func(*SurveySpec){
		func(s *SurveySpec) { s.Registered++ },
		func(s *SurveySpec) { s.Seed++ },
		func(s *SurveySpec) { s.Shards++ },
		func(s *SurveySpec) { s.Signing = SigningEager },
	} {
		changed := base
		mut(&changed)
		if base.Hash() == changed.Hash() {
			t.Errorf("hash blind to a result-affecting field: %+v vs %+v", base, changed)
		}
	}
}

// TestShardRunnerRejectsForeignJob: an executor must refuse a job
// whose carried hash disagrees with its spec — the wire can feed it
// anything.
func TestShardRunnerRejectsForeignJob(t *testing.T) {
	spec, err := SurveyConfig{Registered: 100, Seed: 1}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := PlanJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	job.ConfigHash = "not-the-hash"
	if _, err := NewShardRunner(nil, nil, nil).Execute(context.Background(), job); err == nil {
		t.Fatal("mismatched config hash accepted")
	}
}
