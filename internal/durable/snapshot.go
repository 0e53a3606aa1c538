package durable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"hrtsched/internal/plan"
	"hrtsched/internal/wal"
)

// Snapshot files live next to the WAL segments as snap-<LSN-hex>.snap:
// [magic "hrtsnap1"][u32 payload len][u32 crc32c][JSON payload], written
// to a temp name, fsynced, then renamed — a torn snapshot is never
// visible under its final name, and a corrupt one fails its CRC and falls
// back to the previous snapshot.

const (
	snapMagic   = "hrtsnap1"
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"
	snapVersion = 1
	// snapKeep is how many snapshots survive a new one; the newest can be
	// CRC-damaged by a dying disk, so one fallback stays around.
	snapKeep = 2
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// snapshotPayload is the JSON body of a snapshot file. Term is the
// replication term of the last covered entry; it is only written in
// replicated mode (omitempty), so single-replica snapshots stay
// byte-identical to their pre-replication format.
type snapshotPayload struct {
	Version int       `json:"version"`
	LSN     uint64    `json:"lsn"`
	Term    uint64    `json:"term,omitempty"`
	Spec    plan.Spec `json:"spec"`
	State   *State    `json:"state"`
}

func snapName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	lsn, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

// writeSnapshot persists state as the snapshot covering every record up
// to and including lsn (term 0 outside replicated mode).
func writeSnapshot(fs wal.FS, dir string, lsn, term uint64, spec plan.Spec, state *State) error {
	body, err := json.Marshal(snapshotPayload{
		Version: snapVersion, LSN: lsn, Term: term, Spec: spec, State: state,
	})
	if err != nil {
		return fmt.Errorf("durable: marshal snapshot: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, snapCRC))

	final := filepath.Join(dir, snapName(lsn))
	tmp := final + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create snapshot: %w", err)
	}
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp) //nolint:errcheck // best-effort cleanup of a failed write
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: publish snapshot: %w", err)
	}
	return nil
}

// loadLatestSnapshot returns the newest snapshot that validates, counting
// the ones that did not. A snapshot the cluster could not install does
// not validate, nor does one at the last lsn, after which the log would
// wrap. Placements are checked against the snapshot's own nodes: a
// snapshot with more nodes than are configured is the caller's shrink
// refusal, not a bad snapshot. A dir with no usable snapshot returns a
// nil state with lsn 0: replay starts from the beginning of the log.
func loadLatestSnapshot(fs wal.FS, dir string, spec plan.Spec) (
	state *State, lsn, term uint64, specChanged bool, bad int, err error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, false, 0, fmt.Errorf("durable: list %s: %w", dir, err)
	}
	type cand struct {
		lsn  uint64
		name string
	}
	var cands []cand
	for _, name := range names {
		if l, ok := parseSnapName(name); ok {
			cands = append(cands, cand{l, name})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lsn > cands[j].lsn })

	for _, cd := range cands {
		payload, lerr := readSnapshot(fs, filepath.Join(dir, cd.name))
		if lerr != nil || payload.LSN != cd.lsn || payload.LSN == math.MaxUint64 ||
			!payload.State.installable() {
			bad++
			continue
		}
		return payload.State, payload.LSN, payload.Term, payload.Spec != spec, bad, nil
	}
	return nil, 0, 0, false, bad, nil
}

func readSnapshot(fs wal.FS, path string) (*snapshotPayload, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if len(data) < 16 || string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("durable: bad snapshot header")
	}
	n := binary.LittleEndian.Uint32(data[8:12])
	crc := binary.LittleEndian.Uint32(data[12:16])
	if int64(len(data)) != 16+int64(n) {
		return nil, fmt.Errorf("durable: snapshot length mismatch")
	}
	body := data[16:]
	if crc32.Checksum(body, snapCRC) != crc {
		return nil, fmt.Errorf("durable: snapshot crc mismatch")
	}
	var payload snapshotPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		return nil, fmt.Errorf("durable: snapshot decode: %w", err)
	}
	if payload.Version != snapVersion || payload.State == nil {
		return nil, fmt.Errorf("durable: snapshot version %d", payload.Version)
	}
	if payload.State.Placements == nil {
		payload.State.Placements = map[string]int{}
	}
	return &payload, nil
}

// pruneSnapshots removes all but the newest snapKeep snapshot files.
func pruneSnapshots(fs wal.FS, dir string) error {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	var lsns []uint64
	byLSN := map[uint64]string{}
	for _, name := range names {
		if l, ok := parseSnapName(name); ok {
			lsns = append(lsns, l)
			byLSN[l] = name
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	for _, l := range lsns[min(len(lsns), snapKeep):] {
		if err := fs.Remove(filepath.Join(dir, byLSN[l])); err != nil {
			return err
		}
	}
	return nil
}
