module M = Wf.Wmodule
module Table = Privacy.Standalone.Table
module Listx = Svutil.Listx

let rec popcount mask = if mask = 0 then 0 else 1 + popcount (mask land (mask - 1))

let sets_of_table t =
  let inputs = M.input_names (Table.wmodule t) in
  Table.minimal t
  |> List.map (fun hidden ->
         (Listx.inter hidden inputs, Listx.diff hidden inputs))

(* Safety of every hidden subset, grouped by profile (|H n I|, |H n O|):
   [all.(a).(b)] / [any.(a).(b)] say whether every / some mask of that
   profile is safe. Table masks list the inputs in the low bits. *)
let profiles t =
  let m = Table.wmodule t in
  let n_in = List.length m.M.inputs and n_out = List.length m.M.outputs in
  let all = Array.make_matrix (n_in + 1) (n_out + 1) true in
  let any = Array.make_matrix (n_in + 1) (n_out + 1) false in
  for mask = 0 to Table.size t - 1 do
    let a = popcount (mask land ((1 lsl n_in) - 1)) in
    let b = popcount mask - a in
    if Table.safe t mask then any.(a).(b) <- true else all.(a).(b) <- false
  done;
  (all, any)

let card_of_profiles all =
  let pairs = ref [] in
  Array.iteri
    (fun a row -> Array.iteri (fun b safe -> if safe then pairs := (a, b) :: !pairs) row)
    all;
  Requirement.normalize_card !pairs

(* The table is upward closed, so a mask satisfies the sound list iff
   its own profile is uniformly safe: the list is exact iff no profile
   mixes safe and unsafe masks. *)
let exact_of_table t =
  let all, any = profiles t in
  if all = any then Some (card_of_profiles all) else None

let of_table t =
  match exact_of_table t with
  | Some card when card <> [] -> Requirement.Card card
  | _ -> Requirement.Sets (sets_of_table t)

let sets_requirement m ~gamma = sets_of_table (Table.build m ~gamma)
let sound_cardinality m ~gamma = card_of_profiles (fst (profiles (Table.build m ~gamma)))
let exact_cardinality m ~gamma = exact_of_table (Table.build m ~gamma)
let requirement m ~gamma = of_table (Table.build m ~gamma)
