package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/distsurvey"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/respop"
)

// Workload sizes. They are fixed here, not by flags, so every run of a
// workload measures the same amount of work; see README.md for why
// each was chosen.
const (
	// surveyDomains registered domains per survey job, split into
	// surveyShards lazily signed shard worlds.
	surveyDomains = 800
	surveyShards  = 4
	// resolverScaleDen sizes the resolver fleet (255 validators): large
	// enough that its one shard world's authoritative traffic passes
	// the testbed's 65,536-entry query log.
	resolverScaleDen = 1000
	// resolverRefShards is the decomposition of the resolver-study
	// correctness reference; reports do not depend on it.
	resolverRefShards = 4
	// distWorkers in-process distsurvey workers.
	distWorkers = 2
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// perOpLatency: jobs report per-operation latencies (authserve
	// queries); otherwise the whole job is the operation.
	perOpLatency bool
	// setup prepares one job in a fresh process and returns it.
	setup func(ctx context.Context, seed uint64) (func(context.Context) (*jobOut, error), error)
	// ref computes the correctness reference digest for the seed; nil
	// when the job checks each operation itself.
	ref func(ctx context.Context, seed uint64) (string, error)
	// traced runs the traced replica and derives per-layer metrics.
	traced func(ctx context.Context, seed uint64) (*record, error)
}

var workloads = map[string]*workload{
	"survey": {
		name: "survey",
		setup: func(ctx context.Context, seed uint64) (func(context.Context) (*jobOut, error), error) {
			cfg := surveyConfig(seed, surveyShards)
			if _, err := planSurvey(cfg); err != nil {
				return nil, err
			}
			return func(ctx context.Context) (*jobOut, error) {
				r, err := core.RunSurvey(ctx, cfg)
				if err != nil {
					return nil, err
				}
				return surveyOut(r), nil
			}, nil
		},
		ref:    surveyRef,
		traced: tracedSurvey,
	},
	"survey-dist": {
		name: "survey-dist",
		setup: func(ctx context.Context, seed uint64) (func(context.Context) (*jobOut, error), error) {
			spec, err := planSurvey(surveyConfig(seed, surveyShards))
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context) (*jobOut, error) {
				r, err := runDistributed(ctx, spec, nil, nil)
				if err != nil {
					return nil, err
				}
				return surveyOut(r), nil
			}, nil
		},
		ref:    surveyRef,
		traced: tracedSurveyDist,
	},
	"resolver-study": {
		name: "resolver-study",
		setup: func(ctx context.Context, seed uint64) (func(context.Context) (*jobOut, error), error) {
			cfg := core.ResolverStudyConfig{ScaleDen: resolverScaleDen, Seed: seed, Shards: 1}
			spec, err := cfg.Resolve()
			if err != nil {
				return nil, err
			}
			if _, err := core.PlanResolverJobs(spec); err != nil {
				return nil, err
			}
			return func(ctx context.Context) (*jobOut, error) {
				r, err := core.RunResolverStudy(ctx, cfg)
				if err != nil {
					return nil, err
				}
				return resolverOut(r), nil
			}, nil
		},
		ref: func(ctx context.Context, seed uint64) (string, error) {
			r, err := core.RunResolverStudy(ctx, core.ResolverStudyConfig{
				ScaleDen: resolverScaleDen, Seed: seed, Shards: resolverRefShards,
			})
			if err != nil {
				return "", err
			}
			return resolverDigest(r), nil
		},
		traced: tracedResolverStudy,
	},
	"authserve": {
		name:         "authserve",
		perOpLatency: true,
		setup:        setupAuthserve,
		traced:       tracedAuthserve,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func surveyConfig(seed uint64, shards int) core.SurveyConfig {
	return core.SurveyConfig{Registered: surveyDomains, Seed: seed, Shards: shards, Signing: core.SigningLazy}
}

// planSurvey resolves cfg and plans its shard jobs: the survey's
// set-up before the first shard executes.
func planSurvey(cfg core.SurveyConfig) (core.SurveySpec, error) {
	spec, err := cfg.Resolve()
	if err != nil {
		return spec, err
	}
	_, err = core.PlanJobs(spec)
	return spec, err
}

// surveyRef is the survey's correctness reference: the single-shard,
// in-process report for the seed.
func surveyRef(ctx context.Context, seed uint64) (string, error) {
	r, err := core.RunSurvey(ctx, surveyConfig(seed, 1))
	if err != nil {
		return "", err
	}
	return surveyDigest(r), nil
}

func surveyOut(r *core.SurveyReport) *jobOut {
	return &jobOut{ops: surveyDomains, failed: r.ScanErrors, digest: surveyDigest(r)}
}

func resolverOut(r *core.ResolverStudyReport) *jobOut {
	ops := 0
	for _, n := range r.Deployed {
		ops += n
	}
	return &jobOut{ops: ops, failed: r.ProbeFailures, digest: resolverDigest(r)}
}

// runDistributed runs the survey through a distsurvey coordinator and
// distWorkers in-process workers over in-memory streams. reg (nil ok)
// receives the coordinator's merged metrics; workerCfg (nil ok) adds
// per-worker attachments.
func runDistributed(ctx context.Context, spec core.SurveySpec, reg *obs.Registry, workerCfg func(i int) distsurvey.WorkerConfig) (*core.SurveyReport, error) {
	c, err := distsurvey.NewCoordinator(distsurvey.Config{Spec: spec, Obs: reg})
	if err != nil {
		return nil, err
	}
	sn := netsim.NewStreamNet()
	ln, err := sn.Listen("coordinator")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, distWorkers)
	var wg sync.WaitGroup
	for i := 0; i < distWorkers; i++ {
		cfg := distsurvey.WorkerConfig{}
		if workerCfg != nil {
			cfg = workerCfg(i)
		}
		cfg.Name = fmt.Sprintf("worker-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := sn.DialStream(ctx, "coordinator")
			if err == nil {
				err = distsurvey.RunWorker(ctx, conn, spec, cfg)
			}
			errs[i] = err
		}()
	}
	report, err := c.Serve(ctx, ln)
	if err != nil {
		cancel()
	}
	wg.Wait()
	for _, werr := range errs {
		if werr != nil && err == nil {
			err = fmt.Errorf("distsurvey worker: %w", werr)
		}
	}
	return report, err
}

// surveyDigest hashes the rendered §5.1 report: the Figure 1 CDFs, the
// Table 2 operator ranking, and every merged aggregate.
func surveyDigest(r *core.SurveyReport) string {
	var b bytes.Buffer
	analysis.RenderCDF(&b, "iter", r.IterCDF, []int{0, 1, 10, 25, 100, 500})
	analysis.RenderCDF(&b, "salt", r.SaltCDF, []int{0, 8, 16})
	analysis.RenderOperatorTable(&b, r.Operators.Top(10))
	aggs, err := json.Marshal(struct {
		Agg, TLDs                        any
		TLDAgg                           any
		UnderID, ScanErrors, Transferred int
	}{r.Agg, r.TLDs, r.TLDAgg, r.DomainsUnderIDTLDs, r.ScanErrors, r.TLDZonesTransferred})
	if err != nil {
		return "marshal: " + err.Error()
	}
	b.Write(aggs)
	return digest(b.Bytes())
}

// resolverDigest hashes the rendered Figure 3 series and the §5.2
// aggregates.
func resolverDigest(r *core.ResolverStudyReport) string {
	var b bytes.Buffer
	for _, q := range respop.Quadrants() {
		if s := r.Series[q]; s != nil {
			analysis.RenderRCodeSeries(&b, s)
		}
	}
	aggs, err := json.Marshal(struct {
		PerQuadrant, Overall, Deployed, Population any
		ProbeFailures                              int
	}{r.PerQuadrant, r.Overall, r.Deployed, r.Population, r.ProbeFailures})
	if err != nil {
		return "marshal: " + err.Error()
	}
	b.Write(aggs)
	return digest(b.Bytes())
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}
