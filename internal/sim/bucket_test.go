package sim

import "testing"

// TestTokenBucketSequences pins TokenBucket's admit (#) and refuse (.)
// sequences for both of its clocks: service-clock cycles advancing
// unevenly (serve's class admission) and a step of 1 per attempt (the
// tenant op quota). The admission counts of the serve and tenant
// campaigns follow from these sequences, so a drift in refill order,
// clamping or float arithmetic fails here first.
func TestTokenBucketSequences(t *testing.T) {
	cases := []struct {
		name        string
		rate, burst float64
		steps       []Cycle // clock advance before each Take, cycled
		want        string
	}{
		{"attempt-clocked 0.5/8", 0.5, 8, []Cycle{1},
			"###############.#.#.#.#.#.#.#.#.#.#.#.#.#.#.#.#."},
		{"cycle-clocked 0.25/16", 0.25, 16, []Cycle{0, 1, 0, 3, 0, 0, 2},
			"####################....#..#...#......#..#...#......#..#...#......#..#...#......#..#...#......#."},
		{"cycle-clocked 0.5/32", 0.5, 32, []Cycle{0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 30},
			"#########################################################################################" +
				"......##################......##################......##################......##################......#########"},
		{"near-zero rate 1e-9/2", 1e-9, 2, []Cycle{1}, "##.........."},
		{"disabled", 0, 0, []Cycle{0}, "########"},
		{"burst below 1 clamps to 1", 1e-9, 0, []Cycle{0}, "#..."},
	}
	for _, tc := range cases {
		b := NewTokenBucket(tc.rate, tc.burst)
		var now Cycle
		got := make([]byte, len(tc.want))
		for i := range got {
			now += tc.steps[i%len(tc.steps)]
			got[i] = '.'
			if b.Take(now) {
				got[i] = '#'
			}
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
