module aquila

go 1.23
