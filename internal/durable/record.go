// Package durable makes the cluster placement session survive crashes:
// every committed mutation (place, remove, drain move, rebalance move) is
// encoded as a Record and group-committed to an internal/wal log before
// the client hears about it, a shadow State replica of the placement
// tables advances in log order, and periodic snapshots of the shadow
// bound replay time. Recovery loads the latest valid snapshot, replays
// the WAL suffix through the admission engines, and reconciles the one
// legal intermediate state a crash can expose (a move's dual
// reservation). Replaying the same log always rebuilds the same state —
// every step is a deterministic function of the record sequence.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hrtsched/internal/plan"
)

// Kind says what a record does to the placement tables.
type Kind uint8

const (
	// KindPlace commits a task set onto a node.
	KindPlace Kind = 1
	// KindRemove evicts a named set from a node.
	KindRemove Kind = 2
	// KindPlaceDAG commits a DAG task's derived reservation onto a node.
	// The record carries both the derived periodic server task (what the
	// engine admits, so replay never re-runs response-time analysis) and
	// the DAG provenance (structure + admitted bound, for status).
	KindPlaceDAG Kind = 3
)

// UnknownKindError reports a record whose kind byte this build does not
// understand. It is a distinct type because it means something different
// from corruption: the log was written by a NEWER writer, and skipping
// the record would silently fork the recovered state from the one every
// up-to-date replica rebuilds. Replay fails loudly on it.
type UnknownKindError struct {
	Kind uint8
}

func (e *UnknownKindError) Error() string {
	return fmt.Sprintf("durable: unknown record kind %d (log written by a newer version?)", e.Kind)
}

// DAGMeta is the DAG provenance a KindPlaceDAG record carries alongside
// its derived server task: the admitted graph's shape, timing parameters,
// and the response-time bound the admission decision was based on.
// Entries treat it as immutable once decoded.
type DAGMeta struct {
	// Cores is the parallelism the bound was computed for.
	Cores int `json:"cores"`
	// PeriodNs and DeadlineNs are the DAG task's timing parameters.
	PeriodNs   int64 `json:"period_ns"`
	DeadlineNs int64 `json:"deadline_ns"`
	// BoundNs is the admitted response-time bound (the derived slice).
	BoundNs int64 `json:"bound_ns"`
	// Analyzer names the RTA plug-in that produced the bound.
	Analyzer string `json:"analyzer"`
	// WCETNs holds each DAG node's worst-case execution time, in the
	// submitted node order.
	WCETNs []int64 `json:"wcet_ns"`
	// Edges lists precedence edges as [from, to] node indexes.
	Edges [][2]int `json:"edges,omitempty"`
}

// Record is one committed placement mutation. Remove records carry no
// tasks on the wire — the set is resolved from the shadow state by id,
// which is well-defined because the log is replayed in commit order.
type Record struct {
	Kind   Kind
	Origin Origin
	Node   int
	ID     string
	Tasks  plan.TaskSet // encoded for a place only; a remove may carry its set in memory
	DAG    *DAGMeta     // KindPlaceDAG only
}

// Origin says which operation committed the mutation; recovery rebuilds
// the per-operation counters from it.
type Origin uint8

const (
	// OriginClient is a direct Place or Remove call.
	OriginClient Origin = 0
	// OriginDrain is a place performed while moving a set off a draining
	// node.
	OriginDrain Origin = 1
	// OriginRebalance is a place performed by the rebalancer.
	OriginRebalance Origin = 2
	// OriginRelease is the remove half of a move (or of recovery's orphan
	// reconciliation): the set lives on elsewhere, so it counts nothing.
	OriginRelease Origin = 3
)

// maxIDLen bounds the id field on the wire (u16 length prefix).
const maxIDLen = 1<<16 - 1

// maxNode bounds the node field: it travels as a u32 but must fit an int
// on every platform, so CheckPlacement refuses anything above MaxInt32.
const maxNode = math.MaxInt32

// ErrBadPlacement marks a placement that CheckPlacement refuses.
var ErrBadPlacement = errors.New("durable: bad placement")

// CheckPlacement is the one rule for what a placement may be: an id of 1
// to maxIDLen bytes, a node in [0, maxNode], and 1 to maxIDLen tasks.
// Admission, the record codec and State.Peek all apply it, so every
// placement the service acknowledges encodes, replays, and comes back
// after a restart.
func CheckPlacement(id string, node int, tasks plan.TaskSet) error {
	if err := checkKey(id, node); err != nil {
		return err
	}
	if len(tasks) == 0 || len(tasks) > maxIDLen {
		return fmt.Errorf("%w: %d tasks, want 1 to %d", ErrBadPlacement, len(tasks), maxIDLen)
	}
	return nil
}

// checkKey bounds what every record carries, a remove included: its id
// and its node.
func checkKey(id string, node int) error {
	if len(id) == 0 || len(id) > maxIDLen {
		return fmt.Errorf("%w: id of %d bytes, want 1 to %d", ErrBadPlacement, len(id), maxIDLen)
	}
	if node < 0 || int64(node) > maxNode {
		return fmt.Errorf("%w: node %d outside [0, %d]", ErrBadPlacement, node, int64(maxNode))
	}
	return nil
}

// check applies CheckPlacement to a place record and checkKey to a
// remove.
func (r Record) check() error {
	if r.Kind == KindRemove {
		return checkKey(r.ID, r.Node)
	}
	return CheckPlacement(r.ID, r.Node, r.Tasks)
}

// Encode serializes the record into the WAL payload format:
// [kind u8][origin u8][node u32][idlen u16][id][ntasks u16][{period i64,
// slice i64}...], all little-endian. A KindPlaceDAG record appends its
// DAG section after the tasks: [cores u16][period i64][deadline i64]
// [bound i64][alen u16][analyzer][nnodes u16][wcet i64...][nedges u32]
// [{from u16, to u16}...]. KindPlace and KindRemove payloads are
// byte-identical to every prior release.
func (r Record) Encode() ([]byte, error) {
	if r.Kind != KindPlace && r.Kind != KindRemove && r.Kind != KindPlaceDAG {
		return nil, fmt.Errorf("durable: encode: bad kind %d", r.Kind)
	}
	if r.Origin > OriginRelease {
		return nil, fmt.Errorf("durable: encode: bad origin %d", r.Origin)
	}
	if err := r.check(); err != nil {
		return nil, err
	}
	tasks := r.Tasks
	if r.Kind == KindRemove {
		tasks = nil
	}
	if r.Kind == KindPlaceDAG {
		if err := r.DAG.validate(); err != nil {
			return nil, err
		}
	} else if r.DAG != nil {
		return nil, fmt.Errorf("durable: encode: kind %d record carries DAG meta", r.Kind)
	}
	buf := make([]byte, 0, 2+4+2+len(r.ID)+2+16*len(tasks))
	buf = append(buf, byte(r.Kind), byte(r.Origin))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Node))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.ID)))
	buf = append(buf, r.ID...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(tasks)))
	for _, t := range tasks {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.PeriodNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.SliceNs))
	}
	if r.Kind == KindPlaceDAG {
		d := r.DAG
		buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Cores))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.PeriodNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.DeadlineNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.BoundNs))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.Analyzer)))
		buf = append(buf, d.Analyzer...)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(d.WCETNs)))
		for _, w := range d.WCETNs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Edges)))
		for _, e := range d.Edges {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(e[0]))
			buf = binary.LittleEndian.AppendUint16(buf, uint16(e[1]))
		}
	}
	return buf, nil
}

// validate checks the wire invariants of a DAG section before encoding.
func (d *DAGMeta) validate() error {
	if d == nil {
		return fmt.Errorf("durable: encode: dag record without DAG meta")
	}
	if d.Cores < 1 || d.Cores > maxIDLen {
		return fmt.Errorf("durable: encode: dag cores %d", d.Cores)
	}
	if len(d.WCETNs) == 0 || len(d.WCETNs) > maxIDLen {
		return fmt.Errorf("durable: encode: dag with %d nodes", len(d.WCETNs))
	}
	if len(d.Analyzer) > maxIDLen {
		return fmt.Errorf("durable: encode: dag analyzer name length %d", len(d.Analyzer))
	}
	for _, e := range d.Edges {
		if e[0] < 0 || e[0] >= len(d.WCETNs) || e[1] < 0 || e[1] >= len(d.WCETNs) {
			return fmt.Errorf("durable: encode: dag edge %v out of range", e)
		}
	}
	return nil
}

// DecodeRecord parses one WAL payload. Framing already guarantees the
// bytes arrived intact (CRC32C), so any structural error here means the
// writer and reader disagree — it is returned, never guessed around. An
// unrecognized kind byte returns *UnknownKindError so callers can tell
// "newer writer" apart from corruption.
func DecodeRecord(p []byte) (Record, error) {
	var r Record
	if len(p) < 10 {
		return r, fmt.Errorf("durable: record too short (%d bytes)", len(p))
	}
	r.Kind = Kind(p[0])
	r.Origin = Origin(p[1])
	if r.Kind != KindPlace && r.Kind != KindRemove && r.Kind != KindPlaceDAG {
		return r, &UnknownKindError{Kind: p[0]}
	}
	if r.Origin > OriginRelease {
		return r, fmt.Errorf("durable: bad record origin %d", p[1])
	}
	r.Node = int(binary.LittleEndian.Uint32(p[2:6]))
	idLen := int(binary.LittleEndian.Uint16(p[6:8]))
	if len(p) < 8+idLen+2 {
		return r, fmt.Errorf("durable: record truncated inside id")
	}
	r.ID = string(p[8 : 8+idLen])
	off := 8 + idLen
	ntasks := int(binary.LittleEndian.Uint16(p[off : off+2]))
	off += 2
	if len(p) < off+16*ntasks {
		return r, fmt.Errorf("durable: record truncated inside tasks")
	}
	if ntasks > 0 {
		r.Tasks = make(plan.TaskSet, ntasks)
		for i := range r.Tasks {
			r.Tasks[i].PeriodNs = int64(binary.LittleEndian.Uint64(p[off:]))
			r.Tasks[i].SliceNs = int64(binary.LittleEndian.Uint64(p[off+8:]))
			off += 16
		}
	}
	if r.Kind == KindPlaceDAG {
		d, n, err := decodeDAGMeta(p[off:])
		if err != nil {
			return r, err
		}
		r.DAG = d
		off += n
	}
	if len(p) != off {
		return r, fmt.Errorf("durable: record length %d != %d", len(p), off)
	}
	return r, r.check()
}

// decodeDAGMeta parses the DAG section of a KindPlaceDAG payload and
// returns the bytes consumed.
func decodeDAGMeta(p []byte) (*DAGMeta, int, error) {
	if len(p) < 2+24+2 {
		return nil, 0, fmt.Errorf("durable: record truncated inside dag header")
	}
	d := &DAGMeta{
		Cores:      int(binary.LittleEndian.Uint16(p[0:2])),
		PeriodNs:   int64(binary.LittleEndian.Uint64(p[2:10])),
		DeadlineNs: int64(binary.LittleEndian.Uint64(p[10:18])),
		BoundNs:    int64(binary.LittleEndian.Uint64(p[18:26])),
	}
	if d.Cores < 1 {
		return nil, 0, fmt.Errorf("durable: dag record with cores %d", d.Cores)
	}
	alen := int(binary.LittleEndian.Uint16(p[26:28]))
	off := 28
	if len(p) < off+alen+2 {
		return nil, 0, fmt.Errorf("durable: record truncated inside dag analyzer")
	}
	d.Analyzer = string(p[off : off+alen])
	off += alen
	nnodes := int(binary.LittleEndian.Uint16(p[off : off+2]))
	off += 2
	if nnodes == 0 {
		return nil, 0, fmt.Errorf("durable: dag record with no nodes")
	}
	if len(p) < off+8*nnodes+4 {
		return nil, 0, fmt.Errorf("durable: record truncated inside dag wcets")
	}
	d.WCETNs = make([]int64, nnodes)
	for i := range d.WCETNs {
		d.WCETNs[i] = int64(binary.LittleEndian.Uint64(p[off:]))
		off += 8
	}
	nedges := int(binary.LittleEndian.Uint32(p[off : off+4]))
	off += 4
	if len(p) < off+4*nedges {
		return nil, 0, fmt.Errorf("durable: record truncated inside dag edges")
	}
	if nedges > 0 {
		d.Edges = make([][2]int, nedges)
		for i := range d.Edges {
			from := int(binary.LittleEndian.Uint16(p[off : off+2]))
			to := int(binary.LittleEndian.Uint16(p[off+2 : off+4]))
			if from >= nnodes || to >= nnodes {
				return nil, 0, fmt.Errorf("durable: dag edge [%d %d] out of range", from, to)
			}
			d.Edges[i] = [2]int{from, to}
			off += 4
		}
	}
	return d, off, nil
}
