package experiments

import (
	"os"
	"strings"
	"testing"
)

// quickArtifact is every experiment at the Quick preset with the default
// seed, one Block per id in IDs order, each followed by a blank line:
// what `go run ./cmd/hrtbench -all` prints on stdout and `make
// experiments` writes.
const quickArtifact = "../../results/quick.txt"

// artifactBlocks splits the committed artifact into its blocks by id.
func artifactBlocks(t *testing.T) (ids []string, blocks map[string]string) {
	t.Helper()
	data, err := os.ReadFile(quickArtifact)
	if err != nil {
		t.Fatal(err)
	}
	blocks = make(map[string]string)
	for _, b := range strings.SplitAfter(string(data), "\n\n") {
		if b == "" {
			continue
		}
		id, _, ok := strings.Cut(strings.TrimPrefix(b, "== "), ":")
		if !ok || !strings.HasPrefix(b, "== ") {
			t.Fatalf("%s: block does not open with an \"== id:\" header:\n%s", quickArtifact, b)
		}
		ids = append(ids, id)
		blocks[id] = strings.TrimSuffix(b, "\n")
	}
	return ids, blocks
}

// TestGoldenDeterminism re-runs every experiment and requires its block to
// match the committed artifact byte for byte: the formatted cells and the
// digest over the exact float values. Event ordering, SMI slip accounting
// and RNG consumption must not drift; a behaviour change regenerates the
// artifact with `make experiments` and explains each moved cell.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment runs, skipped in -short")
	}
	ids, blocks := artifactBlocks(t)
	if got, want := strings.Join(ids, " "), strings.Join(IDs(), " "); got != want {
		t.Fatalf("%s holds experiments\n  %s\nwant\n  %s", quickArtifact, got, want)
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			fig, err := Run(id, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := Block(fig), blocks[id]; got != want {
				t.Fatalf("%s drifted from %s (regenerate with `make experiments`):\n%s",
					id, quickArtifact, lineDiff(want, got))
			}
		})
	}
}

// lineDiff lists the lines of want and got that differ, position by
// position, so a moved cell shows as one -/+ pair.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return b.String()
}

// TestGoldenRerunStable guards the guard: the same harness run twice in
// one process must digest identically, otherwise the pinned artifact
// tests nothing.
func TestGoldenRerunStable(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs, skipped in -short")
	}
	a, err := Run("fig6", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig6", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("fig6 is not deterministic within one process: %s vs %s", a.Digest(), b.Digest())
	}
}
