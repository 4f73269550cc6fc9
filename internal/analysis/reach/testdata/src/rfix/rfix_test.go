package rfix

import "testing"

func TestCircle(t *testing.T) {
	if total([]Shape{Circle{1}}) != sum(3, 0) {
		t.Fatal("area")
	}
}
