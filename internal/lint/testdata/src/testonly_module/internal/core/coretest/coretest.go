// Package coretest is a test-helper package (named *test), exempt from
// testonly although no file uses Fixture.
package coretest

func Fixture() int { return 0 }
