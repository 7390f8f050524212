package rpcc_test

import (
	"fmt"
	"time"

	"github.com/manetlab/rpcc"
)

// ExampleRun reproduces a (shortened) Table 1 scenario and prints the
// headline metrics. Runs are deterministic: the same seed always yields
// the same numbers.
func ExampleRun() {
	scenario := rpcc.DefaultScenario(rpcc.StrategyRPCCWC, 42)
	scenario.SimTime = 5 * time.Minute

	result, err := rpcc.Run(scenario)
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", result.Strategy)
	fmt.Println("all weak queries answered locally:", result.AnswerRate() == 1)
	fmt.Println("integrity violations:", result.TornAnswers+result.FutureAnswers)
	// Output:
	// strategy: rpcc-wc
	// all weak queries answered locally: true
	// integrity violations: 0
}

// ExampleSimulation scripts a tiny deployment: a cache node observes the
// source's update through a strong-consistency query.
func ExampleSimulation() {
	sim, err := rpcc.NewSimulation(rpcc.DefaultSimOptions(7))
	if err != nil {
		panic(err)
	}
	sim.Warm(3, 0)                    // host 3 caches host 0's item
	sim.Update(0)                     // host 0 commits version 1
	sim.Query(3, 0, rpcc.LevelStrong) // host 3 must observe it
	sim.RunFor(time.Minute)

	v, _ := sim.Version(3, 0)
	fmt.Println("host 3 sees version:", v)
	fmt.Println("stale strong answers:", sim.Metrics().AuditViolations)
	// Output:
	// host 3 sees version: 1
	// stale strong answers: 0
}
