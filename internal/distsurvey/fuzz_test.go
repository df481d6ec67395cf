package distsurvey

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// encodeFrame returns f's wire bytes exactly as writeFrame sends them.
func encodeFrame(tb testing.TB, f *Frame) []byte {
	tb.Helper()
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		_ = writeFrame(context.Background(), cli, f) // a failed write shows up as a short read below
		_ = cli.Close()
	}()
	data, err := io.ReadAll(srv)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzSpec is the survey every fuzz seed belongs to.
func fuzzSpec(tb testing.TB) core.SurveySpec {
	tb.Helper()
	spec, err := core.SurveyConfig{Registered: 100, Seed: 1, Shards: 2}.Resolve()
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// FuzzReadFrame feeds arbitrary bytes to the coordinator's and
// worker's frame reader. It must never panic, must refuse a length
// word outside (0, MaxFrame] before reading the payload, and must
// return a frame only for a complete, decodable, typed payload.
func FuzzReadFrame(f *testing.F) {
	spec := fuzzSpec(f)
	jobs, err := core.PlanJobs(spec)
	if err != nil {
		f.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Counter("survey_shards_completed_total", "").Inc()
	for _, fr := range []*Frame{
		{Type: TypeHello, Version: ProtocolVersion, ConfigHash: spec.Hash(), Worker: "w1"},
		{Type: TypeHelloOK, Version: ProtocolVersion, HeartbeatMS: 3333},
		{Type: TypeLease},
		{Type: TypeJob, Shard: 1, Lease: 7, Job: mustJSON(f, jobs[1])},
		{Type: TypeHeartbeat, Shard: 1, Lease: 7},
		{Type: TypeResult, Shard: 1, Lease: 7, Outcome: mustJSON(f, &core.ShardOutcome{Index: 1, ScanErrors: 2}), Obs: reg.Snapshot()},
		{Type: TypeResultOK, Shard: 1, Accepted: true},
		{Type: TypeError, Err: "config hash mismatch"},
	} {
		f.Add(encodeFrame(f, fr))
	}
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '{'})
	f.Add([]byte{0, 0, 0, 3, '{', '}', '\n'})

	f.Fuzz(func(t *testing.T, data []byte) {
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = cli.Write(data) // a reader that stops early unblocks this via srv.Close
			_ = cli.Close()
		}()
		if err := srv.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		fr, err := readFrame(context.Background(), srv)
		_ = srv.Close()
		<-done

		if len(data) >= 4 {
			if n := binary.BigEndian.Uint32(data); n == 0 || n > MaxFrame {
				if err == nil {
					t.Fatalf("length word %d accepted", n)
				}
				return
			}
		}
		if err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(data))
		if len(data) < 4+n {
			t.Fatalf("frame returned from %d payload bytes, length word says %d", len(data)-4, n)
		}
		if fr.Type == "" {
			t.Fatal("typeless frame returned")
		}
		var check Frame
		if json.Unmarshal(data[4:4+n], &check) != nil {
			t.Fatal("frame returned for an undecodable payload")
		}
	})
}

// FuzzCheckpointLoad resumes from a state directory holding arbitrary
// manifest.json and shard-NNNN.json bytes. OpenStore must never panic,
// must refuse any manifest but a readable one of this protocol version
// and config hash, and must never return a checkpoint whose hash or
// shard index does not match.
func FuzzCheckpointLoad(f *testing.F) {
	spec := fuzzSpec(f)
	hash := spec.Hash()
	good := []byte(mustJSON(f, manifest{Version: ProtocolVersion, ConfigHash: hash, Spec: spec}))
	old := []byte(mustJSON(f, manifest{Version: 1, ConfigHash: hash, Spec: spec}))
	cp := []byte(mustJSON(f, &Checkpoint[*core.ShardOutcome]{ConfigHash: hash, Outcome: &core.ShardOutcome{Index: 1, ScanErrors: 3}}))
	foreign := []byte(mustJSON(f, &Checkpoint[*core.ShardOutcome]{ConfigHash: "feed", Outcome: &core.ShardOutcome{Index: 1}}))
	f.Add(good, uint16(1), cp)
	f.Add(good, uint16(0), cp)
	f.Add(good, uint16(1), foreign)
	f.Add(good, uint16(1), []byte(`{"config_hash":"`+hash+`","outcome":null}`))
	f.Add(good, uint16(1), cp[:len(cp)/2])
	f.Add(old, uint16(1), cp)
	f.Add([]byte("{definitely not json"), uint16(1), cp)

	f.Fuzz(func(t *testing.T, mf []byte, index uint16, shard []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), mf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardFile(int(index))), shard, 0o644); err != nil {
			t.Fatal(err)
		}
		store, cps, skipped, err := OpenStore(dir, spec, true)
		if err != nil {
			if store != nil || len(cps) != 0 {
				t.Fatalf("refused open returned a store or %d checkpoints", len(cps))
			}
			return
		}
		var m manifest
		if json.Unmarshal(mf, &m) != nil || m.Version != ProtocolVersion || m.ConfigHash != hash {
			t.Fatalf("resumed under manifest %q", mf)
		}
		if len(cps)+skipped != 1 {
			t.Fatalf("one shard file yielded %d checkpoints and %d skips", len(cps), skipped)
		}
		for _, c := range cps {
			if c.ConfigHash != hash || c.Outcome == nil || c.Outcome.Index != int(index) {
				t.Fatalf("returned checkpoint %+v for shard file %d", c, index)
			}
		}
	})
}
