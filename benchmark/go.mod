// The repository benchmark is a module of its own so that BENCHMARK.json's
// "paths" holds its build file too. The path sits under omcast/, which lets it
// import omcast/internal/... (Go checks internal visibility by import path).
module omcast/benchmark

go 1.22

require omcast v0.0.0

replace omcast => ../
