//go:build race

package experiments

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
