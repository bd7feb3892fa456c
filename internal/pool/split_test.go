package pool

import "testing"

func TestSplit(t *testing.T) {
	cases := []struct {
		total, tasks, outer, inner int
	}{
		{1, 1000, 1, 1}, // one core: everything sequential
		{8, 1000, 8, 1}, // more links than workers: whole links per worker
		{8, 2, 2, 4},    // few links: budget flows inside them
		{8, 8, 8, 1},    // exact fit
		{5, 3, 3, 1},    // remainder is dropped, never oversubscribed
		{4, 0, 1, 4},    // degenerate task count clamps to one task
		{16, 1, 1, 16},  // single link gets the whole budget
	}
	for _, c := range cases {
		outer, inner := Split(c.total, c.tasks)
		if outer != c.outer || inner != c.inner {
			t.Errorf("Split(%d, %d) = (%d, %d), want (%d, %d)",
				c.total, c.tasks, outer, inner, c.outer, c.inner)
		}
		if outer*inner > Workers(c.total) {
			t.Errorf("Split(%d, %d) oversubscribes: %d*%d > %d",
				c.total, c.tasks, outer, inner, Workers(c.total))
		}
	}
}
