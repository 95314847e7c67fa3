//go:build race

package serve

// raceEnabled skips allocation-count assertions under -race: the race
// detector instruments allocations and breaks AllocsPerRun's counts.
const raceEnabled = true
