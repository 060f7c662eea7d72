package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestRecoverCommittedDataDirs recovers data directories an earlier release
// wrote (snapshot plus log suffix, one and three shards, coordinator records
// included) and requires the state that release recovered from them: the
// WAL and snapshot formats stay readable, and replay stays a faithful redo.
// See testdata/recovery-9d93fa0/README.md.
func TestRecoverCommittedDataDirs(t *testing.T) {
	root := filepath.Join("testdata", "recovery-9d93fa0")
	for _, name := range []string{"one-shard", "three-shard"} {
		t.Run(name, func(t *testing.T) {
			// Recover from a copy: opening a log may rewrite its files.
			dir := t.TempDir()
			entries, err := os.ReadDir(filepath.Join(root, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(root, name, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, rec := recoverDir(t, dir)
			if rec.Snapshot == nil || len(rec.Records) == 0 {
				t.Fatalf("want a snapshot plus a log suffix, got snapshot=%v records=%d", rec.Snapshot != nil, len(rec.Records))
			}

			states := ParkedStates(r.Parked)
			sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
			got := map[string]any{
				"stats":    r.Manager.Stats(),
				"list":     r.Manager.List(),
				"slo":      r.Manager.SLOReport(),
				"residual": r.Manager.Snapshot(),
				"parked":   states,
			}
			raw, err := os.ReadFile(filepath.Join(root, name+".recovered.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]json.RawMessage
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("expected state has %d surfaces, want %d", len(want), len(got))
			}
			for surface, v := range got {
				data, err := json.Marshal(v)
				if err != nil {
					t.Fatalf("marshal %s: %v", surface, err)
				}
				var w bytes.Buffer
				if err := json.Compact(&w, want[surface]); err != nil {
					t.Fatalf("expected %s: %v", surface, err)
				}
				if !bytes.Equal(data, w.Bytes()) {
					t.Errorf("%s diverged from the recorded recovery\n want: %s\n  got: %s", surface, w.Bytes(), data)
				}
			}
		})
	}
}
