module M = Wf.Wmodule
module R = Rel.Relation
module S = Rel.Schema
module T = Rel.Tuple
module A = Rel.Attr
module P = Rel.Plan
module Hset = Svutil.Hset
module Listx = Svutil.Listx

let hidden_output_multiplier m ~visible =
  List.fold_left
    (fun acc a -> if List.mem (A.name a) visible then acc else acc * A.dom a)
    1 m.M.outputs

let visible_plans m ~visible =
  let vis_in = Listx.inter (M.input_names m) visible in
  let vis_out = Listx.inter (M.output_names m) visible in
  let schema = R.schema m.M.table in
  (vis_in, P.restrict schema vis_in, P.restrict schema vis_out)

(* Distinct visible-output projections among rows of R that agree with
   [input] on the visible inputs. One compiled-plan pass over the
   table; a row with no visible outputs projects to the empty tuple, so
   the distinct count is 1 exactly as required. *)
let distinct_visible_outputs m ~visible ~input =
  let vis_in, in_plan, out_plan = visible_plans m ~visible in
  let x_vis = T.project (M.input_schema m) vis_in input in
  let seen = Hset.create 8 in
  R.iter m.M.table ~f:(fun row ->
      if T.equal (P.apply in_plan row) x_vis then
        Hset.add seen (P.apply out_plan row));
  if Hset.cardinal seen = 0 then invalid_arg "Standalone: input not in pi_I(R)";
  Hset.cardinal seen

let out_size m ~visible ~input =
  distinct_visible_outputs m ~visible ~input * hidden_output_multiplier m ~visible

(* Group the whole table by visible-input projection in a single pass
   instead of rescanning it per defined input: two inputs agreeing on
   the visible attributes share a group, so the minimum over groups is
   the minimum over defined inputs. *)
let min_out_size m ~visible =
  let _, in_plan, out_plan = visible_plans m ~visible in
  let groups = Hashtbl.create 32 in
  R.iter m.M.table ~f:(fun row ->
      let k = P.apply in_plan row in
      let set =
        match Hashtbl.find_opt groups k with
        | Some s -> s
        | None ->
            let s = Hset.create 4 in
            Hashtbl.replace groups k s;
            s
      in
      Hset.add set (P.apply out_plan row));
  if Hashtbl.length groups = 0 then max_int
  else
    let mult = hidden_output_multiplier m ~visible in
    Hashtbl.fold (fun _ set acc -> min acc (Hset.cardinal set * mult)) groups
      max_int

(* Hiding every attribute gives d(x) = 1 and the full hidden-output
   multiplier, so by the monotonicity of Proposition 1 no view can do
   better than the product of the output domains. Saturating, so huge
   domains cannot wrap around the comparison. *)
let max_achievable_gamma m =
  List.fold_left (fun acc a -> Worlds_naive.mul_sat acc (A.dom a)) 1 m.M.outputs

let is_safe m ~visible ~gamma = min_out_size m ~visible >= gamma

let is_hidden_safe m ~hidden ~gamma =
  is_safe m ~visible:(Listx.diff (M.attr_names m) hidden) ~gamma

let safe_visible_subsets m ~gamma =
  List.filter (fun visible -> is_safe m ~visible ~gamma) (Svutil.Subset.all (M.attr_names m))

(* One pass over the hidden-set bitmasks (bit i = the i-th of
   [M.attr_names m]) in increasing numeric order, so every one-smaller
   subset of a mask is decided before the mask itself. A mask that
   drops to a safe mask on removing one attribute is safe by
   Proposition 1 and is never checked; the masks that are checked and
   found safe are exactly the minimal safe hidden sets. *)
module Table = struct
  type t = { wmodule : M.t; attrs : string list; status : Bytes.t; checks : int }

  let unsafe = '\000'
  let minimal_safe = '\001'
  let implied_safe = '\002'

  let build m ~gamma =
    let attrs = M.attr_names m in
    Svutil.Subset.check_universe attrs;
    let status = Bytes.make (1 lsl List.length attrs) unsafe in
    let checks = ref 0 in
    let rec implied mask bits =
      bits <> 0
      &&
      let bit = bits land -bits in
      Bytes.get status (mask lxor bit) <> unsafe || implied mask (bits lxor bit)
    in
    for mask = 0 to Bytes.length status - 1 do
      if implied mask mask then Bytes.set status mask implied_safe
      else begin
        incr checks;
        let hidden = Svutil.Subset.of_mask attrs mask in
        if is_hidden_safe m ~hidden ~gamma then Bytes.set status mask minimal_safe
      end
    done;
    { wmodule = m; attrs; status; checks = !checks }

  (* Unsigned LEB128 of the int's bit pattern: self-delimiting, so the
     concatenation below decodes uniquely given its counts. *)
  let rec put_varint b n =
    if n land lnot 0x7f = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      put_varint b (n lsr 7)
    end

  let key m ~gamma =
    let b = Buffer.create 64 in
    let put = put_varint b in
    let doms attrs =
      put (List.length attrs);
      List.iter (fun a -> put (A.dom a)) attrs
    in
    put gamma;
    doms m.M.inputs;
    doms m.M.outputs;
    put (R.size m.M.table);
    R.iter m.M.table ~f:(Array.iter put);
    Buffer.contents b

  type decisions = { d_status : Bytes.t; d_checks : int }

  let decisions t = { d_status = t.status; d_checks = t.checks }

  let rebind d m =
    let attrs = M.attr_names m in
    if 1 lsl List.length attrs <> Bytes.length d.d_status then
      invalid_arg "Standalone.Table.rebind: arity mismatch";
    { wmodule = m; attrs; status = d.d_status; checks = d.d_checks }

  let wmodule t = t.wmodule
  let attrs t = t.attrs
  let size t = Bytes.length t.status
  let safe t mask = Bytes.get t.status mask <> unsafe
  let checked t mask = Bytes.get t.status mask <> implied_safe
  let checks t = t.checks

  (* [Subset.by_increasing_size] order: by size, then lexicographically
     by attribute positions. *)
  let minimal t =
    let positions = Listx.range (List.length t.attrs) in
    let found = ref [] in
    Bytes.iteri
      (fun mask s ->
        if s = minimal_safe then
          found := Svutil.Subset.of_mask positions mask :: !found)
      t.status;
    List.sort (fun a b -> compare (List.length a, a) (List.length b, b)) !found
    |> List.map (List.map (List.nth t.attrs))
end

let minimal_hidden_subsets m ~gamma = Table.minimal (Table.build m ~gamma)

let min_cost_search m ~gamma ~cost ~prune ~count =
  let best = ref None in
  let found_safe = ref [] in
  List.iter
    (fun hidden ->
      let skip = prune && List.exists (fun h -> Listx.is_subset h hidden) !found_safe in
      if not skip then begin
        incr count;
        if is_hidden_safe m ~hidden ~gamma then begin
          if prune then found_safe := hidden :: !found_safe;
          let c = Rat.sum (List.map cost hidden) in
          match !best with
          | Some (_, c') when Rat.leq c' c -> ()
          | _ -> best := Some (hidden, c)
        end
      end)
    (Svutil.Subset.by_increasing_size (M.attr_names m));
  !best

let min_cost_hidden ?(prune = true) m ~gamma ~cost =
  min_cost_search m ~gamma ~cost ~prune ~count:(ref 0)

let safe_check_calls m ~gamma ~prune =
  let count = ref 0 in
  ignore (min_cost_search m ~gamma ~cost:(fun _ -> Rat.one) ~prune ~count);
  !count

(* ------------------------------------------------------------------ *)
(* Section 6 extensions                                                *)
(* ------------------------------------------------------------------ *)

let min_cost_hidden_general ?(monotone = false) m ~gamma ~cost =
  let best = ref None in
  let found_safe = ref [] in
  List.iter
    (fun hidden ->
      let skip =
        monotone && List.exists (fun h -> Listx.is_subset h hidden) !found_safe
      in
      if not skip then
        if is_hidden_safe m ~hidden ~gamma then begin
          if monotone then found_safe := hidden :: !found_safe;
          let c = cost hidden in
          match !best with
          | Some (_, c') when Rat.leq c' c -> ()
          | _ -> best := Some (hidden, c)
        end)
    (Svutil.Subset.by_increasing_size (M.attr_names m));
  !best

let max_gamma_under_budget m ~cost ~budget =
  let best_gamma = ref 0 and best_hidden = ref [] in
  List.iter
    (fun hidden ->
      let c = Rat.sum (List.map cost hidden) in
      if Rat.leq c budget then begin
        let visible = Listx.diff (M.attr_names m) hidden in
        let level = min_out_size m ~visible in
        if level > !best_gamma then begin
          best_gamma := level;
          best_hidden := hidden
        end
      end)
    (Svutil.Subset.all (M.attr_names m));
  (!best_gamma, !best_hidden)

let estimate_min_out_size rng m ~visible ~samples =
  let inputs = M.defined_inputs m in
  let picked = Svutil.Rng.sample rng samples inputs in
  let mult = hidden_output_multiplier m ~visible in
  List.fold_left
    (fun acc x -> min acc (distinct_visible_outputs m ~visible ~input:x * mult))
    max_int picked

let check_sampled rng m ~visible ~gamma ~samples =
  if estimate_min_out_size rng m ~visible ~samples >= gamma then `Safe_on_sample
  else `Unsafe
