package analysis

import "testing"

func TestLockFlowFixtures(t *testing.T) {
	checkFixture(t, LockFlow, loadFixture(t, "lockflow", ""))
}
