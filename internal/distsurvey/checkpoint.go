package distsurvey

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/obs"
)

// Crash-safe study state: a state directory holds one manifest.json
// naming the study (protocol version, config hash and spec) and one
// shard-NNNN.json per completed shard. Every file is written
// atomically — temp file, fsync, rename, directory fsync — so a file
// either exists complete or not at all; a checkpoint that is
// nevertheless truncated or corrupt (torn disk, manual edit) is
// skipped on load and the shard simply re-runs. The report builder's
// duplicate rejection guarantees a shard is merged exactly once no
// matter how a resume interleaves with re-leases.

// manifestName and the shard file pattern are the state directory's
// entire layout.
const manifestName = "manifest.json"

// manifest pins which study a state directory belongs to. The config
// hash — whose preimages are disjoint between study kinds — and the
// protocol version are what a resume compares; the spec is for humans.
type manifest struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	Spec       any    `json:"spec"`
}

// Checkpoint is one completed shard's durable record: the outcome the
// report needs plus the worker's metrics snapshot, hash-stamped so a
// file from a different study can never be merged.
type Checkpoint[O any] struct {
	ConfigHash string        `json:"config_hash"`
	Outcome    O             `json:"outcome"`
	Obs        *obs.Snapshot `json:"obs,omitempty"`
}

// StateMismatchError is the typed refusal for resuming (or starting
// over) a state directory recorded under a different config hash.
type StateMismatchError struct {
	Dir  string
	Want string // hash of the study being run
	Got  string // hash recorded in the directory
}

func (e *StateMismatchError) Error() string {
	return fmt.Sprintf("distsurvey: state dir %s belongs to study %s, not %s — delete it or rerun the original flags with -resume",
		e.Dir, e.Got, e.Want)
}

// StateVersionError is the typed refusal for resuming a state
// directory written under another protocol version, whose checkpoints
// this build cannot read.
type StateVersionError struct {
	Dir  string
	Want int // ProtocolVersion
	Got  int // version recorded in the directory
}

func (e *StateVersionError) Error() string {
	return fmt.Sprintf("distsurvey: state dir %s holds protocol version %d state, this build resumes version %d — delete it and start over",
		e.Dir, e.Got, e.Want)
}

// StateExistsError is the typed refusal for starting a fresh run over
// a state directory that already holds a study: without -resume that
// would silently orphan (or worse, later double-merge) its shards.
type StateExistsError struct {
	Dir string
}

func (e *StateExistsError) Error() string {
	return fmt.Sprintf("distsurvey: state dir %s already holds study state — pass -resume to continue it or delete the directory",
		e.Dir)
}

// Store reads and writes one study's state directory.
type Store[O any] struct {
	dir     string
	hash    string
	shardOf func(O) (int, bool)
}

// OpenStore opens (or initializes) the state directory for study s.
// With resume, the directory must already hold a manifest of the same
// protocol version and config hash, and the surviving checkpoints are
// returned; without it, the directory must not hold study state yet.
// The skipped count reports checkpoints dropped as corrupt.
func OpenStore[J, O, R any](dir string, s core.Study[J, O, R], resume bool) (store *Store[O], cps []*Checkpoint[O], skipped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	hash := s.Hash()
	st := &Store[O]{dir: dir, hash: hash, shardOf: s.ShardOf}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var m manifest
		if jerr := json.Unmarshal(data, &m); jerr != nil || m.ConfigHash == "" {
			// A torn manifest means the initial run died before its first
			// checkpoint: nothing can be resumed, nothing can be lost.
			if resume {
				return nil, nil, 0, fmt.Errorf("distsurvey: state dir %s has an unreadable manifest; nothing to resume", dir)
			}
		} else {
			if !resume {
				return nil, nil, 0, &StateExistsError{Dir: dir}
			}
			if m.Version != ProtocolVersion {
				return nil, nil, 0, &StateVersionError{Dir: dir, Want: ProtocolVersion, Got: m.Version}
			}
			if m.ConfigHash != hash {
				return nil, nil, 0, &StateMismatchError{Dir: dir, Want: hash, Got: m.ConfigHash}
			}
			cps, skipped = st.load()
			return st, cps, skipped, nil
		}
	case os.IsNotExist(err):
		if resume {
			return nil, nil, 0, fmt.Errorf("distsurvey: state dir %s has no manifest; nothing to resume", dir)
		}
	default:
		return nil, nil, 0, err
	}
	m, err := json.Marshal(manifest{Version: ProtocolVersion, ConfigHash: hash, Spec: s})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := writeFileAtomic(dir, manifestName, m); err != nil {
		return nil, nil, 0, err
	}
	return st, nil, 0, nil
}

// shardFile names shard index's checkpoint.
func shardFile(index int) string {
	return fmt.Sprintf("shard-%04d.json", index)
}

// Write durably records one completed shard. The write is atomic: a
// crash at any point leaves either the previous state or the complete
// new file, never a torn one.
func (s *Store[O]) Write(cp *Checkpoint[O]) error {
	if cp == nil {
		return fmt.Errorf("distsurvey: refusing to checkpoint an empty outcome")
	}
	index, ok := s.shardOf(cp.Outcome)
	if !ok {
		return fmt.Errorf("distsurvey: refusing to checkpoint an empty outcome")
	}
	cp.ConfigHash = s.hash
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return writeFileAtomic(s.dir, shardFile(index), data)
}

// load scans the directory for shard checkpoints, skipping (and
// counting) any that are corrupt, truncated, hash-mismatched, or
// misfiled — those shards just re-run.
func (s *Store[O]) load() (cps []*Checkpoint[O], skipped int) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0
	}
	for _, e := range entries {
		var index int
		if n, err := fmt.Sscanf(e.Name(), "shard-%d.json", &index); n != 1 || err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, e.Name()))
		if err != nil {
			skipped++
			continue
		}
		cp := &Checkpoint[O]{}
		if err := json.Unmarshal(data, cp); err != nil || cp.ConfigHash != s.hash {
			skipped++
			continue
		}
		if got, ok := s.shardOf(cp.Outcome); !ok || got != index {
			skipped++
			continue
		}
		cps = append(cps, cp)
	}
	return cps, skipped
}

// writeFileAtomic writes name under dir via temp file + fsync + rename
// + directory fsync — the strongest crash-safety plain files offer.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()        // the write error is the one worth reporting
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()        // the sync error is the one worth reporting
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		_ = os.Remove(tmpName) // best-effort cleanup of the failed temp
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	// A close error after the sync carries nothing the sync error
	// doesn't; the rename itself is already durable or not.
	_ = d.Close()
	return err
}
