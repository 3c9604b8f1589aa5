package core

import "testing"

func TestOnlyTest(t *testing.T) {
	var _ OnlyTestType
	if OnlyTest()+OnlyTestVar+OnlyTestConst+Allowed() != 11 {
		t.Fatal("corpus arithmetic")
	}
}
