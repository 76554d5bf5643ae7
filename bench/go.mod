module orpheusdb/bench

go 1.22

require orpheusdb v0.0.0

replace orpheusdb => ../
