//go:build !race

package wire

// floodCallers is how many calls TestServeFloodBounded has in flight at
// once (flood_race_test.go holds the race detector's smaller number).
const floodCallers = 10000
