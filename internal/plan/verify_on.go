//go:build planverify

package plan

import "fmt"

// VerifyEnabled reports whether this binary was built with the planverify
// tag, in which case every Incremental verdict is cross-checked against
// the full Analyze and any divergence panics.
const VerifyEnabled = true

// verifyVerdict asserts that an Incremental verdict for candidate is the
// verdict Analyze gives the same candidate. A divergence is a bug in the
// incremental engine, never a data error, so it panics with both
// verdicts and the candidate for reproduction.
func verifyVerdict(spec Spec, candidate TaskSet, got Verdict) {
	if want := Analyze(spec, candidate); got != want {
		panic(fmt.Sprintf("plan: incremental verdict diverges from full analysis\n"+
			"spec:        %+v\ncandidate:   %v\nincremental: %+v\nfull:        %+v",
			spec, candidate, got, want))
	}
}
