(* Print every corpus input's outcome line; see [Qasm_corpus]. *)
let () =
  for i = 0 to Qasm_corpus.count - 1 do
    print_endline (Qasm_corpus.line i)
  done
