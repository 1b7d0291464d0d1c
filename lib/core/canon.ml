(* Colour refinement (1-WL) over the instance's incidence structure,
   with integer colours. Nodes are the attributes, the private modules
   and the public modules, numbered in that order. Round-0 colours rank
   the name-free payloads (cost, requirement shape, privatization cost);
   each later round ranks every node's signature: its kind, its own
   colour and the sorted colours of its neighbours. A colour is the rank
   of its signature in sorted order, never an id in first-seen order, so
   names never enter a colour and colours are comparable across
   instances: every derived quantity is rename-invariant by
   construction. *)

(* The instance over ints, built once: attribute i is [names.(i)] (in
   [attr_costs] order), module j is node [na + j] and public k is node
   [na + nm + k]. *)
type indexed = {
  names : string array;
  costs : Rat.t array;
  ins : int array array;  (* module -> its input attributes *)
  outs : int array array;
  opts : (int array * int array) array array;  (* Sets options; [||] for Card *)
  shape : int array array;
      (* module payload: [0; a1; b1; ...] for a normalized Card, [1; k]
         for Sets with k options *)
  p_costs : Rat.t array;
  p_attrs : int array array;
  adj : int array array;
      (* attribute -> its incidences, each [role * n + node] with role 0
         (input of a module), 1 (output) or 2 (in a public module) *)
}

let index (inst : Instance.t) =
  let names = Array.of_list (List.map fst inst.Instance.attr_costs) in
  let costs = Array.of_list (List.map snd inst.Instance.attr_costs) in
  let id = Hashtbl.create (Array.length names) in
  Array.iteri (fun i a -> Hashtbl.replace id a i) names;
  let ids l = Array.of_list (List.map (Hashtbl.find id) l) in
  let mods = Array.of_list inst.Instance.mods in
  let pubs = Array.of_list inst.Instance.publics in
  let na = Array.length names and nm = Array.length mods in
  let n = na + nm + Array.length pubs in
  let ins = Array.map (fun (m : Instance.module_req) -> ids m.Instance.inputs) mods in
  let outs = Array.map (fun (m : Instance.module_req) -> ids m.Instance.outputs) mods in
  let opts =
    Array.map
      (fun (m : Instance.module_req) ->
        match m.Instance.req with
        | Requirement.Card _ -> [||]
        | Requirement.Sets l ->
            Array.of_list (List.map (fun (i, o) -> (ids i, ids o)) l))
      mods
  in
  let shape =
    Array.map
      (fun (m : Instance.module_req) ->
        match m.Instance.req with
        | Requirement.Card l ->
            Array.of_list
              (0
              :: List.concat_map (fun (a, b) -> [ a; b ])
                   (Requirement.normalize_card l))
        | Requirement.Sets l -> [| 1; List.length l |])
      mods
  in
  let p_attrs = Array.map (fun (p : Instance.public_mod) -> ids p.Instance.p_attrs) pubs in
  (* One incidence per (attribute, node, role), even if a list repeats
     the attribute. *)
  let adj = Array.make na [] in
  let seen = Array.make na (-1) in
  let link role node attrs =
    Array.iter
      (fun a ->
        if seen.(a) <> node then begin
          seen.(a) <- node;
          adj.(a) <- ((role * n) + node) :: adj.(a)
        end)
      attrs
  in
  Array.iteri (fun j a -> link 0 (na + j) a) ins;
  Array.fill seen 0 na (-1);
  Array.iteri (fun j a -> link 1 (na + j) a) outs;
  Array.iteri (fun k a -> link 2 (na + nm + k) a) p_attrs;
  {
    names;
    costs;
    ins;
    outs;
    opts;
    shape;
    p_costs = Array.map (fun (p : Instance.public_mod) -> p.Instance.p_cost) pubs;
    p_attrs;
    adj = Array.map Array.of_list adj;
  }

let compare_ints (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Insertion sort of [a.(lo..)] in place; the runs are arities. *)
let sort_from (a : int array) lo =
  for i = lo + 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Dense ranks of nodes [0..n-1] under [cmp]: equal nodes share a rank,
   and a rank counts the distinct smaller nodes. Returns the ranks and
   the number of distinct colours. *)
let rank n cmp =
  let order = Array.init n Fun.id in
  Array.stable_sort cmp order;
  let col = Array.make n 0 in
  let r = ref 0 in
  for k = 1 to n - 1 do
    if cmp order.(k - 1) order.(k) <> 0 then incr r;
    col.(order.(k)) <- !r
  done;
  (col, if n = 0 then 0 else !r + 1)

(* The colour of every node: refine until the number of distinct
   colours stops growing (then the partition is stable), at most
   [n + 1] rounds. *)
let refine ix =
  let na = Array.length ix.names and nm = Array.length ix.ins in
  let n = na + nm + Array.length ix.p_attrs in
  let kind v = if v < na then 0 else if v < na + nm then 1 else 2 in
  let col0, d0 =
    rank n (fun u v ->
        match (kind u, kind v) with
        | 0, 0 -> Rat.compare ix.costs.(u) ix.costs.(v)
        | 1, 1 -> compare_ints ix.shape.(u - na) ix.shape.(v - na)
        | 2, 2 -> Rat.compare ix.p_costs.(u - na - nm) ix.p_costs.(v - na - nm)
        | ku, kv -> Int.compare ku kv)
  in
  (* The sorted colours of [attrs], length first. *)
  let cols col attrs =
    let s = Array.make (Array.length attrs + 1) (Array.length attrs) in
    Array.iteri (fun k a -> s.(k + 1) <- col.(a)) attrs;
    sort_from s 1;
    s
  in
  (* Synchronous update: every signature reads only the old colours. *)
  let round col =
    let signature v =
      match kind v with
      | 0 ->
          let e = ix.adj.(v) in
          let s = Array.make (Array.length e + 2) 0 in
          s.(1) <- col.(v);
          Array.iteri
            (fun k e ->
              let u = e mod n in
              s.(k + 2) <- e - u + col.(u))
            e;
          sort_from s 2;
          s
      | 1 ->
          let j = v - na in
          let opts =
            Array.map
              (fun (i, o) -> Array.append (cols col i) (cols col o))
              ix.opts.(j)
          in
          Array.stable_sort compare_ints opts;
          Array.concat
            ([| 1; col.(v) |] :: cols col ix.ins.(j) :: cols col ix.outs.(j)
            :: [| Array.length opts |] :: Array.to_list opts)
      | _ ->
          Array.append [| 2; col.(v) |] (cols col ix.p_attrs.(v - na - nm))
    in
    let sigs = Array.init n signature in
    rank n (fun u v -> compare_ints sigs.(u) sigs.(v))
  in
  let rec go k col d =
    if k < n + 1 then
      let col', d' = round col in
      if d' > d then go (k + 1) col' d' else col'
    else col
  in
  go 0 col0 d0

(* The canonical relabeling behind [form], kept around as a first-class
   value so solutions can be transported across the isomorphism that
   equal forms exhibit (the serve cache's hit path). *)
type labeling = {
  lab_form : string;
  canon_names : string array;  (* canonical label -> attribute *)
  canon_colours : int array;  (* canonical label -> its colour *)
  pub_slots : string array;  (* canonical slot -> public module name *)
  canon_of : (string, int) Hashtbl.t Lazy.t;  (* attribute -> label *)
  slot_of : (string, int) Hashtbl.t Lazy.t;  (* public module -> slot *)
}

let positions names =
  lazy
    (let t = Hashtbl.create (Array.length names) in
     Array.iteri (fun i a -> Hashtbl.replace t a i) names;
     t)

(* Decimal digits straight into the buffer: [string_of_int] goes
   through the C formatter, which costs ≈7 µs per hot-pool labeling. *)
let rec add_int b x =
  if x < 0 then Buffer.add_string b (string_of_int x)
  else begin
    if x >= 10 then add_int b (x / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (x mod 10)))
  end

let add_ints b sep (a : int array) =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b sep;
      add_int b x)
    a

let labeling inst =
  let ix = index inst in
  let col = refine ix in
  (* Relabel attributes by (stable colour, original name): the tie-break
     keeps the output deterministic; soundness of [form] equality does
     not depend on it (any relabeling exhibits the isomorphism). Module
     and public lines are name-free, so sorting the serialized lines
     canonicalizes their order directly. *)
  let order = Array.init (Array.length ix.names) Fun.id in
  Array.stable_sort
    (fun u v ->
      let c = Int.compare col.(u) col.(v) in
      if c <> 0 then c else String.compare ix.names.(u) ix.names.(v))
    order;
  let label = Array.make (Array.length order) 0 in
  Array.iteri (fun k a -> label.(a) <- k) order;
  let labels attrs =
    let l = Array.map (fun a -> label.(a)) attrs in
    sort_from l 0;
    l
  in
  (* One line per canonical label, in label order: its cost. *)
  let b = Buffer.create 256 in
  Array.iter
    (fun a ->
      Buffer.add_string b (Rat.to_string ix.costs.(a));
      Buffer.add_char b '\n')
    order;
  let line = Buffer.create 64 in
  let take () =
    let s = Buffer.contents line in
    Buffer.clear line;
    s
  in
  let mods =
    Array.mapi
      (fun j shape ->
        Buffer.add_string line "mod I[";
        add_ints line ',' (labels ix.ins.(j));
        Buffer.add_string line "] O[";
        add_ints line ',' (labels ix.outs.(j));
        if shape.(0) = 0 then begin
          Buffer.add_string line "] card";
          for p = 0 to (Array.length shape / 2) - 1 do
            Buffer.add_char line (if p = 0 then ' ' else ',');
            add_int line shape.((2 * p) + 1);
            Buffer.add_char line ':';
            add_int line shape.((2 * p) + 2)
          done
        end
        else begin
          Buffer.add_string line "] sets";
          let opts = Array.map (fun (i, o) -> (labels i, labels o)) ix.opts.(j) in
          Array.stable_sort
            (fun (i, o) (i', o') ->
              let c = compare_ints i i' in
              if c <> 0 then c else compare_ints o o')
            opts;
          Array.iter
            (fun (i, o) ->
              Buffer.add_string line " (";
              add_ints line ',' i;
              Buffer.add_char line '/';
              add_ints line ',' o;
              Buffer.add_char line ')')
            opts
        end;
        Buffer.add_char line '\n';
        take ())
      ix.shape
  in
  Array.stable_sort String.compare mods;
  Array.iter (Buffer.add_string b) mods;
  (* Public lines are sorted by their canonical serialization; the name
     tie-break only orders publics whose lines are identical, and such
     publics (same cost, same canonical attribute set) are
     interchangeable, so slot-to-slot matching between equal forms is an
     isomorphism whatever the tie order. *)
  let pubs =
    Array.mapi
      (fun k (p : Instance.public_mod) ->
        Buffer.add_string line "pub ";
        Buffer.add_string line (Rat.to_string ix.p_costs.(k));
        Buffer.add_string line " [";
        add_ints line ',' (labels ix.p_attrs.(k));
        Buffer.add_string line "]\n";
        (take (), p.Instance.p_name))
      (Array.of_list inst.Instance.publics)
  in
  Array.stable_sort compare pubs;
  Array.iter (fun (l, _) -> Buffer.add_string b l) pubs;
  let canon_names = Array.map (fun a -> ix.names.(a)) order in
  let pub_slots = Array.map snd pubs in
  {
    lab_form = Buffer.contents b;
    canon_names;
    canon_colours = Array.map (fun a -> col.(a)) order;
    pub_slots;
    canon_of = positions canon_names;
    slot_of = positions pub_slots;
  }

let form_of_labeling l = l.lab_form
let form inst = (labeling inst).lab_form

let classes l =
  let rec go k acc cls =
    if k < 0 then if cls = [] then acc else cls :: acc
    else
      let a = l.canon_names.(k) in
      if cls <> [] && l.canon_colours.(k) <> l.canon_colours.(k + 1) then
        go (k - 1) (cls :: acc) [ a ]
      else go (k - 1) acc (a :: cls)
  in
  go (Array.length l.canon_names - 1) [] []

let transport ~src ~dst (s : Solution.t) =
  if not (String.equal src.lab_form dst.lab_form) then None
  else
    (* Equal forms list as many attributes and publics, so a label or
       slot of [src] is one of [dst]. *)
    let via tbl names x =
      Option.map (Array.get names) (Hashtbl.find_opt (Lazy.force tbl) x)
    in
    let all f l =
      let mapped = List.filter_map f l in
      if List.length mapped = List.length l then Some mapped else None
    in
    match
      ( all (via src.canon_of dst.canon_names) s.Solution.hidden,
        all (via src.slot_of dst.pub_slots) s.Solution.privatized )
    with
    | Some hidden, Some privatized ->
        (* Cost is preserved by the isomorphism; callers re-verify with
           a [Solution.of_hidden] re-closure anyway. *)
        Some { Solution.hidden; privatized; cost = s.Solution.cost }
    | _ -> None

(* Name-free summaries for [fingerprint]. *)
let sorted_concat l = String.concat ";" (List.sort compare l)

let card_shape l =
  String.concat ","
    (List.map
       (fun (a, b) -> Printf.sprintf "%d:%d" a b)
       (Requirement.normalize_card l))

(* A cheap isomorphism invariant: sorted name-free summaries of the
   three node kinds, no refinement, no hashing. Unequal fingerprints
   refute isomorphism in O(n log n); equal fingerprints decide nothing.
   Callers use it to skip the refinement on the common
   obviously-changed case. *)
let fingerprint (inst : Instance.t) =
  let costs =
    List.sort compare
      (List.map (fun (_, c) -> Rat.to_string c) inst.Instance.attr_costs)
  in
  let mods =
    List.sort compare
      (List.map
         (fun (m : Instance.module_req) ->
           let req =
             match m.Instance.req with
             | Requirement.Card l -> "card " ^ card_shape l
             | Requirement.Sets l ->
                 "sets "
                 ^ sorted_concat
                     (List.map
                        (fun (i, o) ->
                          Printf.sprintf "%d/%d" (List.length i)
                            (List.length o))
                        l)
           in
           Printf.sprintf "%d>%d %s"
             (List.length m.Instance.inputs)
             (List.length m.Instance.outputs)
             req)
         inst.Instance.mods)
  in
  let pubs =
    List.sort compare
      (List.map
         (fun (p : Instance.public_mod) ->
           Printf.sprintf "%s#%d"
             (Rat.to_string p.Instance.p_cost)
             (List.length p.Instance.p_attrs))
         inst.Instance.publics)
  in
  String.concat "|" (costs @ mods @ pubs)
