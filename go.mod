module kairos

go 1.24
