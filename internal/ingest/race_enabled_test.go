//go:build race

package ingest

// raceEnabled skips allocation-count assertions under -race: the race
// detector instruments allocations and breaks AllocsPerRun's zeros.
const raceEnabled = true
