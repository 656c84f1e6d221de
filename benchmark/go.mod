module stagedweb/benchmark

go 1.24.0

require stagedweb v0.0.0

replace stagedweb => ../
