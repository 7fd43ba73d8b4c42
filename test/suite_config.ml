module Config = Sabre.Config

let check = Alcotest.check
let tc = Alcotest.test_case
let valid c = match Config.validate c with Ok () -> true | Error _ -> false

let test_default_matches_paper () =
  let d = Config.default in
  check Alcotest.bool "validates" true (valid d);
  check Alcotest.int "|E| = 20" 20 d.extended_set_size;
  check (Alcotest.float 0.) "W = 0.5" 0.5 d.extended_set_weight;
  check (Alcotest.float 0.) "delta = 0.001" 0.001 d.decay_increment;
  check Alcotest.int "reset every 5" 5 d.decay_reset_interval;
  check Alcotest.int "5 trials" 5 d.trials;
  check Alcotest.int "3 traversals" 3 d.traversals;
  check Alcotest.bool "decay heuristic" true (d.heuristic = Config.Decay)

let test_validation_rejects () =
  let d = Config.default in
  check Alcotest.bool "negative E" false
    (valid { d with extended_set_size = -1 });
  check Alcotest.bool "weight 1.0" false
    (valid { d with extended_set_weight = 1.0 });
  check Alcotest.bool "negative weight" false
    (valid { d with extended_set_weight = -0.1 });
  check Alcotest.bool "negative delta" false
    (valid { d with decay_increment = -0.001 });
  check Alcotest.bool "zero reset" false
    (valid { d with decay_reset_interval = 0 });
  check Alcotest.bool "negative reset" false
    (valid { d with decay_reset_interval = -3 });
  check Alcotest.bool "NaN weight" false
    (valid { d with extended_set_weight = Float.nan });
  check Alcotest.bool "NaN delta" false
    (valid { d with decay_increment = Float.nan });
  check Alcotest.bool "zero trials" false (valid { d with trials = 0 });
  check Alcotest.bool "even traversals" false (valid { d with traversals = 2 });
  check Alcotest.bool "zero traversals" false (valid { d with traversals = 0 });
  check Alcotest.bool "bad stall limit" false
    (valid { d with stall_limit = Some 0 })

let test_validation_accepts_variants () =
  let d = Config.default in
  check Alcotest.bool "single traversal" true (valid { d with traversals = 1 });
  check Alcotest.bool "five traversals" true (valid { d with traversals = 5 });
  check Alcotest.bool "zero E with basic" true
    (valid { d with extended_set_size = 0; heuristic = Config.Basic });
  check Alcotest.bool "zero delta" true (valid { d with decay_increment = 0.0 })

let test_allocation_bounds () =
  let d = Config.default in
  check Alcotest.bool "trials at the bound" true
    (valid { d with trials = Config.max_trials });
  check Alcotest.bool "trials past the bound" false
    (valid { d with trials = Config.max_trials + 1 });
  check Alcotest.bool "|E| at the bound" true
    (valid { d with extended_set_size = Config.max_extended_set_size });
  check Alcotest.bool "|E| past the bound" false
    (valid { d with extended_set_size = Config.max_extended_set_size + 1 })

(* Bit-exact: [to_string] prints floats in hex, so equal text means equal
   bits, where [=] would equate -0.0 and 0.0. *)
let roundtrips c =
  Result.map Config.to_string (Config.of_string (Config.to_string c))
  = Ok (Config.to_string c)
  && Config.of_string (Config.to_string c) = Ok c

(* A field left out of the setter table reads back as the default's, so
   flip the one field the generator never sets. *)
let prop_text_roundtrip =
  QCheck.Test.make ~count:300 ~name:"config text form round-trips"
    (QCheck.make Check.Generators.config)
    (fun c ->
      roundtrips c
      && roundtrips { c with commutation_aware = not c.commutation_aware })

let test_text_roundtrip_floats () =
  List.iter
    (fun f ->
      let c =
        { Config.default with extended_set_weight = f; decay_increment = f }
      in
      check Alcotest.bool (Printf.sprintf "%h round-trips" f) true
        (roundtrips c))
    [ -0.0; Float.succ 0.0; 0x1.fffffffffffffp-1 ]

let test_digest_pinned () =
  (* the compile-cache key of every default-config compile *)
  check Alcotest.string "default digest" "68adbd41eaa9bb9a1026723c4157113e"
    (Config.digest Config.default)

let test_text_errors () =
  let text = Config.to_string Config.default in
  let replace field v =
    String.split_on_char ' ' text
    |> List.map (fun kv ->
           if String.starts_with ~prefix:(field ^ ":") kv then field ^ ":" ^ v
           else kv)
    |> String.concat " "
  in
  check
    Alcotest.(result reject string)
    "malformed value"
    (Error "trials: expected an integer, got \"x\"")
    (Result.map ignore (Config.of_string (replace "trials" "x")));
  check Alcotest.bool "booleans read as specs spell them" true
    (Config.of_string (replace "commutation_aware" "on")
    = Ok { Config.default with commutation_aware = true });
  check
    Alcotest.(result reject string)
    "missing field"
    (Error "missing field \"seed\"")
    (Result.map ignore
       (Config.of_string
          (String.concat " "
             (List.filter
                (fun kv -> not (String.starts_with ~prefix:"seed:" kv))
                (String.split_on_char ' ' text)))))

(* The traversal count is odd, so the largest one accepted is 999; each
   traversal routes the whole circuit, so the cost of an unbounded count
   is linear in it. *)
let test_traversals_bounded () =
  let d = Config.default in
  check Alcotest.bool "999 traversals" true (valid { d with traversals = 999 });
  check
    Alcotest.(result unit string)
    "1,001 traversals"
    (Error "traversals must be <= 1000")
    (Config.validate { d with traversals = 1001 })

let suite =
  [
    tc "default matches paper Section V" `Quick test_default_matches_paper;
    tc "validation rejects bad params" `Quick test_validation_rejects;
    tc "validation accepts variants" `Quick test_validation_accepts_variants;
    tc "trials and |E| bounded" `Quick test_allocation_bounds;
    QCheck_alcotest.to_alcotest prop_text_roundtrip;
    tc "text form round-trips edge floats" `Quick test_text_roundtrip_floats;
    tc "digest of the default pinned" `Quick test_digest_pinned;
    tc "text form errors name the field" `Quick test_text_errors;
    tc "traversals bounded" `Quick test_traversals_bounded;
  ]
