//go:build race

package pipeline_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
