type 'a t = ('a, unit) Hashtbl.t

let create n = Hashtbl.create n
let mem = Hashtbl.mem
let add t x = Hashtbl.replace t x ()

let remove = Hashtbl.remove
let cardinal = Hashtbl.length
let fold f t init = Hashtbl.fold (fun x () acc -> f x acc) t init
let iter f t = Hashtbl.iter (fun x () -> f x) t
let elements t = fold (fun x acc -> x :: acc) t []

let of_list l =
  let t = create (List.length l) in
  List.iter (add t) l;
  t
