package dag

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"hrtsched/internal/plan"
)

// diamond is the canonical 4-node test graph:
//
//	  0 (100us)
//	 / \
//	1   2 (300us, 200us)
//	 \ /
//	  3 (100us)
//
// Critical path 0->1->3 = 500us, volume 700us.
func diamond() *Task {
	return &Task{
		Name: "diamond",
		Nodes: []Node{
			{Name: "src", WCETNs: 100_000},
			{Name: "left", WCETNs: 300_000},
			{Name: "right", WCETNs: 200_000},
			{Name: "sink", WCETNs: 100_000},
		},
		Edges:      []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		PeriodNs:   2_000_000,
		DeadlineNs: 1_000_000,
		Cores:      2,
	}
}

func TestValidateAcceptsDiamond(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectionCodes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Task)
		code   ErrorCode
	}{
		{"no nodes", func(d *Task) { d.Nodes = nil; d.Edges = nil }, ErrNoNodes},
		{"zero wcet", func(d *Task) { d.Nodes[1].WCETNs = 0 }, ErrBadWCET},
		{"negative wcet", func(d *Task) { d.Nodes[3].WCETNs = -5 }, ErrBadWCET},
		{"zero period", func(d *Task) { d.PeriodNs = 0 }, ErrBadPeriod},
		{"negative deadline", func(d *Task) { d.DeadlineNs = -1 }, ErrBadDeadline},
		{"deadline beyond period", func(d *Task) { d.DeadlineNs = d.PeriodNs + 1 }, ErrBadDeadline},
		{"zero cores", func(d *Task) { d.Cores = 0 }, ErrBadCores},
		{"edge from out of range", func(d *Task) { d.Edges[0].From = 9 }, ErrEdgeRange},
		{"edge to out of range", func(d *Task) { d.Edges[0].To = -1 }, ErrEdgeRange},
		{"self edge", func(d *Task) { d.Edges[0] = Edge{2, 2} }, ErrSelfEdge},
		{"duplicate edge", func(d *Task) { d.Edges = append(d.Edges, Edge{0, 1}) }, ErrDupEdge},
		{"cycle", func(d *Task) { d.Edges = append(d.Edges, Edge{3, 0}) }, ErrCycle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := diamond()
			tc.mutate(d)
			err := d.Validate()
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("Validate() = %v, want *ValidationError", err)
			}
			if verr.Code != tc.code {
				t.Fatalf("code = %q, want %q (err: %v)", verr.Code, tc.code, verr)
			}
		})
	}
}

func TestValidateCycleCarriesPath(t *testing.T) {
	d := diamond()
	d.Edges = append(d.Edges, Edge{3, 0})
	err := d.Validate()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Code != ErrCycle {
		t.Fatalf("Validate() = %v, want cycle error", err)
	}
	want := []int{0, 1, 3}
	if !reflect.DeepEqual(verr.Path, want) {
		t.Fatalf("cycle path = %v, want %v", verr.Path, want)
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	d := diamond()
	want := []int{0, 1, 2, 3}
	for i := 0; i < 5; i++ {
		if got := d.TopoOrder(); !reflect.DeepEqual(got, want) {
			t.Fatalf("TopoOrder() = %v, want %v", got, want)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	d := diamond()
	lenNs, path := d.CriticalPath()
	if lenNs != 500_000 {
		t.Fatalf("critical path length = %d, want 500000", lenNs)
	}
	if want := []int{0, 1, 3}; !reflect.DeepEqual(path, want) {
		t.Fatalf("critical path = %v, want %v", path, want)
	}
	if v := d.Volume(); v != 700_000 {
		t.Fatalf("volume = %d, want 700000", v)
	}
}

func TestCriticalPathNoEdges(t *testing.T) {
	d := &Task{
		Nodes:    []Node{{WCETNs: 10}, {WCETNs: 30}, {WCETNs: 20}},
		PeriodNs: 100,
		Cores:    3,
	}
	lenNs, path := d.CriticalPath()
	if lenNs != 30 || !reflect.DeepEqual(path, []int{1}) {
		t.Fatalf("CriticalPath() = %d %v, want 30 [1]", lenNs, path)
	}
}

func TestClassicalBound(t *testing.T) {
	d := diamond()
	r := Classical{}.Analyze(d)
	// R = L + ceil((V-L)/m) = 500us + ceil(200us/2) = 600us <= D = 1ms.
	if !r.Admit || r.Reason != OK {
		t.Fatalf("verdict = %+v, want admit/ok", r)
	}
	if r.BoundNs != 600_000 || r.CriticalPathNs != 500_000 || r.VolumeNs != 700_000 || r.InterferenceNs != 200_000 {
		t.Fatalf("bound fields = %+v", r)
	}
	if want := []int{0, 1, 3}; !reflect.DeepEqual(r.BlockingPath, want) {
		t.Fatalf("blocking path = %v, want %v", r.BlockingPath, want)
	}
	if r.Utilization != 0.35 {
		t.Fatalf("utilization = %v, want 0.35", r.Utilization)
	}
}

func TestClassicalDeadlineMiss(t *testing.T) {
	d := diamond()
	d.DeadlineNs = 550_000 // L = 500us fits, R = 600us does not.
	r := Classical{}.Analyze(d)
	if r.Admit || r.Reason != DeadlineMiss {
		t.Fatalf("verdict = %+v, want deadline-miss", r)
	}
}

func TestClassicalPathOverrun(t *testing.T) {
	d := diamond()
	d.DeadlineNs = 400_000 // below L = 500us: no core count helps.
	r := Classical{}.Analyze(d)
	if r.Admit || r.Reason != PathOverrun {
		t.Fatalf("verdict = %+v, want path-overrun", r)
	}
}

func TestAlphaBetaNeverLooserThanClassical(t *testing.T) {
	d := diamond()
	// Add an independent straggler that outranks nothing on the path
	// under longest-path-first: its chain (50us) is shorter than every
	// path node's chain, so it drops out of the interference set.
	d.Nodes = append(d.Nodes, Node{Name: "straggler", WCETNs: 50_000})
	c := Classical{}.Analyze(d)
	ab := AlphaBeta{}.Analyze(d)
	if ab.BoundNs > c.BoundNs {
		t.Fatalf("alpha-beta bound %d looser than classical %d", ab.BoundNs, c.BoundNs)
	}
	if ab.InterferenceNs >= c.InterferenceNs {
		t.Fatalf("straggler not filtered: alpha-beta interference %d, classical %d",
			ab.InterferenceNs, c.InterferenceNs)
	}
}

func TestPriorityPolicies(t *testing.T) {
	d := diamond()
	topo := TopoOrderPolicy{}.Assign(d)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(topo, want) {
		t.Fatalf("topo ranks = %v, want %v", topo, want)
	}
	// Downward chains: 0: 500us, 1: 400us, 2: 300us, 3: 100us.
	lpf := LongestPathFirstPolicy{}.Assign(d)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(lpf, want) {
		t.Fatalf("lpf ranks = %v, want %v", lpf, want)
	}
	// Make node 2 the heavy branch; it must outrank node 1.
	d.Nodes[2].WCETNs = 600_000
	lpf = LongestPathFirstPolicy{}.Assign(d)
	if lpf[2] >= lpf[1] {
		t.Fatalf("heavy branch not promoted: ranks %v", lpf)
	}
}

func TestReasonTags(t *testing.T) {
	for r, want := range map[Reason]string{OK: "ok", PathOverrun: "path-overrun", DeadlineMiss: "deadline-miss"} {
		if r.String() != want {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), want)
		}
		b, err := json.Marshal(r)
		if err != nil || string(b) != `"`+want+`"` {
			t.Fatalf("marshal %v = %s, %v", r, b, err)
		}
		var back Reason
		if err := json.Unmarshal(b, &back); err != nil || back != r {
			t.Fatalf("unmarshal %s = %v, %v", b, back, err)
		}
	}
	var bad Reason
	if err := bad.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("UnmarshalText accepted junk")
	}
}

func TestNewAnalyzer(t *testing.T) {
	for _, name := range append(AnalyzerNames(), "") {
		a, err := NewAnalyzer(name)
		if err != nil || a == nil {
			t.Fatalf("NewAnalyzer(%q) = %v, %v", name, a, err)
		}
	}
	if _, err := NewAnalyzer("bogus"); err == nil {
		t.Fatal("NewAnalyzer accepted an unknown name")
	}
	a, _ := NewAnalyzer("")
	if a.Name() != "classical" {
		t.Fatalf("default analyzer = %q, want classical", a.Name())
	}
}

func TestPlanRegistryIntegration(t *testing.T) {
	spec := plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}
	for _, name := range []string{"dag-classical", "dag-alpha-beta"} {
		a, err := plan.NewAnalysis(name, spec)
		if err != nil {
			t.Fatalf("NewAnalysis(%q) = %v", name, err)
		}
		if a.Spec() != spec {
			t.Fatalf("spec = %+v, want %+v", a.Spec(), spec)
		}
		// The periodic half must agree with the default EDF analysis bit
		// for bit — a DAG plug-in changes nothing about periodic verdicts.
		set := plan.TaskSet{{PeriodNs: 1_000_000, SliceNs: 200_000}, {PeriodNs: 500_000, SliceNs: 100_000}}
		got, want := a.Analyze(set), plan.Analyze(spec, set)
		if !plan.VerdictsEquivalent(got, want) {
			t.Fatalf("%s periodic verdict diverged: %+v vs %+v", name, got, want)
		}
		eng := a.NewEngine()
		if v := eng.TryGang(set); !v.Admit {
			t.Fatalf("engine rejected %+v", v)
		}
	}
}

func TestAnalyzeDAGAndServerTask(t *testing.T) {
	spec := plan.Spec{OverheadNs: 4_600, UtilizationLimit: 0.79}
	a := New(spec, Classical{})
	if a.Name() != "dag-classical" {
		t.Fatalf("Name() = %q", a.Name())
	}
	d := diamond()
	r, err := a.AnalyzeDAG(d)
	if err != nil || !r.Admit {
		t.Fatalf("AnalyzeDAG = %+v, %v", r, err)
	}
	st := ServerTask(d, r)
	if st.PeriodNs != d.PeriodNs || st.SliceNs != r.BoundNs {
		t.Fatalf("server task = %+v, want period %d slice %d", st, d.PeriodNs, r.BoundNs)
	}
	// Structural rejection comes back as a typed error, not a Result.
	bad := diamond()
	bad.Edges = append(bad.Edges, Edge{3, 0})
	if _, err := a.AnalyzeDAG(bad); err == nil {
		t.Fatal("AnalyzeDAG accepted a cyclic task")
	}
}
