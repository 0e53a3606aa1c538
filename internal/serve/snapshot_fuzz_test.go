package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotBoot writes each input, wrapped in a valid snapshot header
// and CRC, as the only snapshot of a fresh data directory, named after
// the body's own lsn when it has one, so the JSON and State checks are
// what get fuzzed. It then boots a three-node durable cluster on the
// directory. No input may panic: a snapshot the loader accepts must be
// one the cluster installs, and a refused one is counted bad.
func FuzzSnapshotBoot(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		writeSnapshotFile(t, dir, body)
		c, err := NewCluster(ClusterConfig{Nodes: 3, Spec: testSpec, Durability: &DurabilityConfig{Dir: dir}})
		if err != nil {
			return // refused outright, e.g. more nodes than configured
		}
		defer c.Close()
		if st := c.Status(); st.Durability == nil || len(st.Nodes) != 3 {
			t.Fatalf("%q: booted status %+v", body, st)
		}
	})
}

// writeSnapshotFile frames body the way the durable store frames a
// snapshot — magic, little-endian length, CRC-32C — and writes it under
// the name of the lsn the body carries (1 when it carries none).
func writeSnapshotFile(t *testing.T, dir string, body []byte) {
	t.Helper()
	var named struct {
		LSN uint64 `json:"lsn"`
	}
	if json.Unmarshal(body, &named) != nil || named.LSN == 0 {
		named.LSN = 1
	}
	hdr := make([]byte, 16, 16+len(body))
	copy(hdr, "hrtsnap1")
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	name := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", named.LSN))
	if err := os.WriteFile(name, append(hdr, body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCorpusInstalls requires the committed FuzzSnapshotBoot
// corpus to hold a snapshot the cluster installs, so the target starts
// from bodies past the State checks. (Plain go test replays the corpus
// through FuzzSnapshotBoot itself, unknown-node entries included.)
func TestSnapshotCorpusInstalls(t *testing.T) {
	for _, body := range fuzzCorpus(t, "FuzzSnapshotBoot") {
		dir := t.TempDir()
		writeSnapshotFile(t, dir, []byte(body))
		c := newTestCluster(t, ClusterConfig{Nodes: 3, Durability: &DurabilityConfig{Dir: dir}})
		if c.Recovery().BadSnapshots == 0 && c.Status().Placements > 0 {
			return
		}
	}
	t.Fatal("no FuzzSnapshotBoot corpus entry installs a placement")
}
