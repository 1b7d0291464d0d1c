(* Reference requirement derivation: the per-subset definitions that
   Privacy.Standalone.Table and Core.Derive replace, kept as a test
   oracle. Every hidden subset is checked with Standalone.is_hidden_safe
   (twice: once for the profiles, once for the exactness scan), and the
   minimal sets come from a separate pruned scan in
   Subset.by_increasing_size order. *)

module M = Wf.Wmodule
module St = Privacy.Standalone
module Listx = Svutil.Listx

let minimal_hidden_subsets m ~gamma =
  let minimal = ref [] in
  List.iter
    (fun hidden ->
      if not (List.exists (fun h -> Listx.is_subset h hidden) !minimal) then
        if St.is_hidden_safe m ~hidden ~gamma then minimal := hidden :: !minimal)
    (Svutil.Subset.by_increasing_size (M.attr_names m));
  List.rev !minimal

let sets_requirement m ~gamma =
  let inputs = M.input_names m in
  minimal_hidden_subsets m ~gamma
  |> List.map (fun hidden ->
         (Listx.inter hidden inputs, Listx.diff hidden inputs))

let profile_table m ~gamma =
  let inputs = M.input_names m in
  let profiles = Hashtbl.create 16 in
  Svutil.Subset.iter (M.attr_names m) (fun hidden ->
      let profile =
        ( List.length (Listx.inter hidden inputs),
          List.length (Listx.diff hidden inputs) )
      in
      let safe = St.is_hidden_safe m ~hidden ~gamma in
      let all = Option.value ~default:true (Hashtbl.find_opt profiles profile) in
      Hashtbl.replace profiles profile (all && safe));
  profiles

let sound_cardinality m ~gamma =
  Hashtbl.fold
    (fun p all_safe acc -> if all_safe then p :: acc else acc)
    (profile_table m ~gamma) []
  |> Core.Requirement.normalize_card

let exact_cardinality m ~gamma =
  let card = sound_cardinality m ~gamma in
  let inputs = M.input_names m and outputs = M.output_names m in
  let exact = ref true in
  Svutil.Subset.iter (M.attr_names m) (fun hidden ->
      let by_card =
        Core.Requirement.is_satisfied (Core.Requirement.Card card) ~inputs ~outputs
          ~hidden
      in
      if by_card <> St.is_hidden_safe m ~hidden ~gamma then exact := false);
  if !exact then Some card else None

let requirement m ~gamma =
  match exact_cardinality m ~gamma with
  | Some card when card <> [] -> Core.Requirement.Card card
  | _ -> Core.Requirement.Sets (sets_requirement m ~gamma)
