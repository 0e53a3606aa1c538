//go:build race

package plan

// Under -race, sync.Pool deliberately randomizes Put/Get so pooled
// buffers are sometimes dropped and reallocated — the zero-alloc gates
// would measure that randomization, not the code.
func init() { raceEnabled = true }
