module Circuit = Quantum.Circuit
module Mapping = Sabre_core.Mapping

type outcome = {
  physical : Circuit.t Lazy.t;
  depth : int;
  trial_initial : Mapping.t;
  final_mapping : Mapping.t;
  n_swaps : int;
  first_swaps : int;
  search_steps : int;
  fallback_swaps : int;
  traversals : int;
  scoring : Sabre_core.Stats.scoring;
      (* inner-loop scorer accounting; [Stats.scoring_zero] for routers
         without a heuristic decision loop *)
}

exception Route_failed of string

module type S = sig
  val name : string
  val deterministic : bool
  val derives_seed : bool
  val route : Context.t -> initial:Mapping.t -> outcome
end

type t = (module S)

let name (module R : S) = R.name
let deterministic (module R : S) = R.deterministic
let derives_seed (module R : S) = R.derives_seed

let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let register (module R : S) = Hashtbl.replace registry R.name (module R : S)
let find n = Hashtbl.find_opt registry n

let names () =
  Hashtbl.fold (fun n _ acc -> n :: acc) registry [] |> List.sort compare

let find_suggest n =
  match find n with
  | Some r -> Ok r
  | None ->
    Error
      (Printf.sprintf "unknown router %S (available: %s)" n
         (String.concat ", " (names ())))
