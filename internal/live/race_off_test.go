//go:build !race

package live

// raceEnabled gates allocation assertions; see race_on_test.go.
const raceEnabled = false
