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

(* The cardinality form is name-free; the set form is read off the
   table under the module's own names. *)
let of_exact t = function
  | Some card when card <> [] -> Requirement.Card card
  | _ -> Requirement.Sets (sets_of_table t)

let of_table t = of_exact t (exact_of_table t)

let sets_requirement m ~gamma = sets_of_table (Table.build m ~gamma)
let sound_cardinality m ~gamma = card_of_profiles (fst (profiles (Table.build m ~gamma)))
let exact_cardinality m ~gamma = exact_of_table (Table.build m ~gamma)
let requirement m ~gamma = of_table (Table.build m ~gamma)

module Memo = struct
  type stats = { hits : int; misses : int; evictions : int; skipped : int; size : int }

  let capacity = 256
  let max_entry_bytes = 32 * 1024

  type entry = { decisions : Table.decisions; exact : Requirement.cardinality option }

  type state = {
    lru : entry Svutil.Lru.t;
    mutable hits : int;
    mutable misses : int;
    mutable skipped : int;
  }

  let fresh () = { lru = Svutil.Lru.create capacity; hits = 0; misses = 0; skipped = 0 }
  let local = Svutil.Par.domain_local (fun () -> ref (fresh ()))
  let clear () = local () := fresh ()

  let stats () =
    let st = !(local ()) in
    {
      hits = st.hits;
      misses = st.misses;
      evictions = Svutil.Lru.evictions st.lru;
      skipped = st.skipped;
      size = Svutil.Lru.length st.lru;
    }

  (* An entry costs its key plus one status byte per mask. The key has
     at least one byte per table cell, so the bound is tested before the
     key is built; past 25 attributes [requirement] raises as before. *)
  let requirement m ~gamma =
    let st = !(local ()) in
    let k = M.arity m in
    let bound key_bytes = k <= 25 && (1 lsl k) + key_bytes <= max_entry_bytes in
    let uncached () =
      st.skipped <- st.skipped + 1;
      requirement m ~gamma
    in
    if not (bound (k * Rel.Relation.size m.M.table)) then uncached ()
    else
      let key = Table.key m ~gamma in
      if not (bound (String.length key)) then uncached ()
      else
        match Svutil.Lru.find st.lru key with
        | Some e ->
            st.hits <- st.hits + 1;
            of_exact (Table.rebind e.decisions m) e.exact
        | None ->
            st.misses <- st.misses + 1;
            let t = Table.build m ~gamma in
            let exact = exact_of_table t in
            Svutil.Lru.add st.lru key { decisions = Table.decisions t; exact };
            of_exact t exact
end
