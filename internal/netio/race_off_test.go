//go:build !race

package netio

// raceEnabled gates allocation assertions; see race_on_test.go.
const raceEnabled = false
