package core

import (
	"strconv"
	"testing"
)

func TestOverlapAblationSpeedup(t *testing.T) {
	tab, err := OverlapAblation([]AblationCase{{N: 48, Ranks: 4}, {N: 96, Ranks: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		speedup, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if speedup <= 1 {
			t.Errorf("n=%s ranks=%s: overlap speedup %s not above 1", row[0], row[1], row[4])
		}
		syncMsgs, _ := strconv.Atoi(row[5])
		overMsgs, _ := strconv.Atoi(row[6])
		if overMsgs >= syncMsgs {
			t.Errorf("n=%s: overlapped variant should exchange fewer messages", row[0])
		}
	}
}

func TestBlockSizeAblation(t *testing.T) {
	tab, err := BlockSizeAblation(96, 4, []int{4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tab.Rows))
	}
	// Larger blocks mean fewer panels and fewer messages.
	prev := int(^uint(0) >> 1)
	for _, row := range tab.Rows {
		msgs, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if msgs >= prev {
			t.Errorf("nb=%s: messages %d not below %d", row[0], msgs, prev)
		}
		prev = msgs
	}
}
