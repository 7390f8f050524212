//go:build race

package experiment

// Under the race detector set-up allocates about 124 B per node more than
// a plain build: 2 719 B per node for TestSetupAllocationBudget's run
// (go1.24, linux/amd64). The race build's byte budget is that figure
// + 5 %, and like the plain one it only ever tightens.
func init() { setupByteBudget = 1.05 * 2719 }
