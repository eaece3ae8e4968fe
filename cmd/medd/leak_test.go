package main

import (
	"testing"

	"modelmed/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
