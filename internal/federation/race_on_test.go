//go:build race

package federation

// raceEnabled reports whether this test binary was built with the race
// detector, under which allocation counts are not the program's own.
const raceEnabled = true
