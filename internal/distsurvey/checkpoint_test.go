package distsurvey

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func storeSpec(t *testing.T, seed uint64) core.SurveySpec {
	t.Helper()
	spec, err := core.SurveyConfig{Registered: 100, Seed: seed, Shards: 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOpenStoreLifecycle pins the typed refusals around state
// directories: fresh-over-live needs -resume, resume-with-other-flags
// is a mismatch, resume-of-nothing is an error.
func TestOpenStoreLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	spec := storeSpec(t, 1)

	if _, _, _, err := OpenStore(dir, spec, true); err == nil {
		t.Fatal("resume of a nonexistent state dir succeeded")
	}
	store, cps, skipped, err := OpenStore(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 || skipped != 0 {
		t.Fatalf("fresh store reported %d checkpoints, %d skipped", len(cps), skipped)
	}
	var exists *StateExistsError
	if _, _, _, err := OpenStore(dir, spec, false); !errors.As(err, &exists) {
		t.Fatalf("second fresh open returned %v, want *StateExistsError", err)
	}
	var mismatch *StateMismatchError
	if _, _, _, err := OpenStore(dir, storeSpec(t, 2), true); !errors.As(err, &mismatch) {
		t.Fatalf("foreign resume returned %v, want *StateMismatchError", err)
	}

	// Round trip one checkpoint and resume it.
	if err := store.Write(&Checkpoint[*core.ShardOutcome]{Outcome: &core.ShardOutcome{Index: 1, ScanErrors: 3}}); err != nil {
		t.Fatal(err)
	}
	_, cps, skipped, err = OpenStore(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(cps) != 1 || cps[0].Outcome.Index != 1 || cps[0].Outcome.ScanErrors != 3 {
		t.Fatalf("resume returned cps=%+v skipped=%d", cps, skipped)
	}

	// An empty checkpoint is refused at the source.
	if err := store.Write(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if err := store.Write(&Checkpoint[*core.ShardOutcome]{}); err == nil {
		t.Error("outcome-less checkpoint accepted")
	}
}

// TestLoadSkipsMisfiledCheckpoint: a checkpoint whose filename and
// recorded shard index disagree is skipped, not merged under the wrong
// shard.
func TestLoadSkipsMisfiledCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	spec := storeSpec(t, 1)
	store, _, _, err := OpenStore(dir, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&Checkpoint[*core.ShardOutcome]{Outcome: &core.ShardOutcome{Index: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "shard-0000.json"), filepath.Join(dir, "shard-0001.json")); err != nil {
		t.Fatal(err)
	}
	_, cps, skipped, err := OpenStore(dir, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 0 || skipped != 1 {
		t.Fatalf("misfiled checkpoint: cps=%d skipped=%d, want 0/1", len(cps), skipped)
	}
}

// TestResumeRefusesOldProtocolState: a state directory written by a
// protocol-1 build — manifest and one shard checkpoint, laid down by
// hand — is refused on resume with a *StateVersionError naming both
// versions, before any checkpoint is merged.
func TestResumeRefusesOldProtocolState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	spec := storeSpec(t, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	v1Manifest := `{"version":1,"config_hash":"` + spec.Hash() + `","spec":{"registered":100,"seed":1,"workers":64,"qps":0,"shards":2,"signing":1}}`
	v1Shard := `{"config_hash":"` + spec.Hash() + `","outcome":{"index":0,"agg":null,"operators":null,"scan_errors":3,"domains_under_id_tlds":0}}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(v1Manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0000.json"), []byte(v1Shard), 0o644); err != nil {
		t.Fatal(err)
	}

	var version *StateVersionError
	_, cps, _, err := OpenStore(dir, spec, true)
	if !errors.As(err, &version) || version.Got != 1 || version.Want != ProtocolVersion {
		t.Fatalf("resume over v1 state returned %v, want *StateVersionError{Got: 1, Want: %d}", err, ProtocolVersion)
	}
	if len(cps) != 0 {
		t.Fatalf("refused resume returned %d checkpoints", len(cps))
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, fmt.Sprintf("version %d", ProtocolVersion)) {
		t.Errorf("refusal %q does not name both versions", msg)
	}

	reg := obs.NewRegistry()
	coord, err := NewCoordinator(Config{Spec: spec, Obs: reg, StateDir: dir, Resume: true})
	if !errors.As(err, &version) || coord != nil {
		t.Fatalf("coordinator resume over v1 state returned %v, want *StateVersionError", err)
	}
	if got := reg.Counter("distsurvey_checkpoints_loaded_total", "").Value(); got != 0 {
		t.Errorf("checkpoints_loaded = %d after a refused resume, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0000.json")); err != nil {
		t.Errorf("refused resume disturbed the old state: %v", err)
	}
}
