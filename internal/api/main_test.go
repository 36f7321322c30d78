package api

import (
	"os"
	"testing"
)

// poisonByte overwrites every request buffer the middleware releases
// while the tests run. A policy token that outlived its request then
// reads as no string at all, so its text, its alias key and the answer
// built from them come out wrong and the differentials fail.
const poisonByte = 0xa5

func TestMain(m *testing.M) {
	releasedRequestBuf = func(b *requestBuf) {
		for i := range b {
			b[i] = poisonByte
		}
	}
	os.Exit(m.Run())
}
