package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/testbed"
)

// Study is one of the paper's sharded measurements, named by its
// resolved, serializable spec: J is a shard job, O a shard's outcome
// and R the final report. SurveySpec (§4.1) and ResolverStudySpec
// (§4.2) implement it. Run drives a study in-process; the coordinator
// and worker in internal/distsurvey drive the same three layers across
// processes, so both modes produce byte-identical reports.
type Study[J, O, R any] interface {
	// Hash identifies the study. Jobs, workers, checkpoints and state
	// directories carrying another hash are refused.
	Hash() string
	// Plan splits the study into independent shard jobs; jobs[i] is
	// shard i.
	Plan() ([]J, error)
	// NewRunner returns a per-process shard executor whose metrics land
	// in reg and whose phase spans land in trace (both may be nil). The
	// cache (nil for a fresh one) is shared by every shard it runs.
	NewRunner(reg *obs.Registry, trace *obs.Tracer, cache *testbed.SignCache) Runner[J, O]
	// NewBuilder returns an empty report builder.
	NewBuilder() Builder[O, R]
	// ShardOf returns the shard index o belongs to, false for a
	// missing (nil) outcome.
	ShardOf(o O) (int, bool)
}

// Runner executes a study's shard jobs: ShardRunner and
// ResolverShardRunner.
type Runner[J, O any] interface {
	Execute(ctx context.Context, job J) (O, error)
}

// Builder folds shard outcomes into a study's report, in any order but
// each shard exactly once: ReportBuilder and ResolverReportBuilder.
type Builder[O, R any] interface {
	Add(o O) error
	Merged(index int) bool
	Finish() R
}

// Run executes a study in-process: plan the shard jobs, execute each
// one sequentially through one runner (so its sign cache is shared),
// and merge its outcome before the next shard is touched.
func Run[J, O, R any](ctx context.Context, s Study[J, O, R], reg *obs.Registry, trace *obs.Tracer) (R, error) {
	var none R
	jobs, err := s.Plan()
	if err != nil {
		return none, err
	}
	b := s.NewBuilder()
	run := s.NewRunner(reg, trace, nil)
	for _, job := range jobs {
		out, err := run.Execute(ctx, job)
		if err != nil {
			return none, err
		}
		if err := b.Add(out); err != nil {
			return none, err
		}
	}
	return b.Finish(), nil
}

// DuplicateShardError is the typed rejection a report builder's Add
// returns when a shard's outcome arrives twice — the enforcement point
// that a resumed or re-leased study never double-merges.
type DuplicateShardError struct {
	Index int
}

func (e *DuplicateShardError) Error() string {
	return fmt.Sprintf("core: shard %d already merged into the report", e.Index)
}

// shardSet is the merged-shard bookkeeping both report builders embed.
type shardSet map[int]bool

// Merged reports whether the shard's outcome has already been added.
func (s shardSet) Merged(index int) bool { return s[index] }

// claim marks a shard merged, or returns *DuplicateShardError if it
// already was.
func (s shardSet) claim(index int) error {
	if s[index] {
		return &DuplicateShardError{Index: index}
	}
	s[index] = true
	return nil
}
