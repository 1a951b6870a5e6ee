open Sb_crypto

type wire = int

type gate =
  | Input of int * int
  | Const of Field.t
  | Add of wire * wire
  | Sub of wire * wire
  | Scale of Field.t * wire
  | Mul of wire * wire

type t = {
  n_parties : int;
  mutable gates : gate list; (* reversed *)
  mutable count : int;
  mutable input_counts : int array;
  mutable outs : wire list; (* reversed *)
  mutable depth : int array; (* multiplication depth per wire *)
}

let create ~n_parties =
  assert (n_parties >= 1);
  {
    n_parties;
    gates = [];
    count = 0;
    input_counts = Array.make n_parties 0;
    outs = [];
    depth = Array.make 16 0;
  }

let push c gate depth =
  let w = c.count in
  c.gates <- gate :: c.gates;
  c.count <- c.count + 1;
  if w >= Array.length c.depth then begin
    let bigger = Array.make (2 * Array.length c.depth) 0 in
    Array.blit c.depth 0 bigger 0 (Array.length c.depth);
    c.depth <- bigger
  end;
  c.depth.(w) <- depth;
  w

let depth_of c w = c.depth.(w)

let input c ~party =
  if party < 0 || party >= c.n_parties then invalid_arg "Circuit.input: bad party";
  let idx = c.input_counts.(party) in
  c.input_counts.(party) <- idx + 1;
  push c (Input (party, idx)) 0

let const c v = push c (Const v) 0
let add c a b = push c (Add (a, b)) (max (depth_of c a) (depth_of c b))
let sub c a b = push c (Sub (a, b)) (max (depth_of c a) (depth_of c b))
let scale c k a = push c (Scale (k, a)) (depth_of c a)
let mul c a b = push c (Mul (a, b)) (1 + max (depth_of c a) (depth_of c b))
let output c w = c.outs <- w :: c.outs

let bit_xor c a b =
  (* a + b - 2ab *)
  let ab = mul c a b in
  sub c (add c a b) (scale c (Field.of_int 2) ab)

let bit_not c a = sub c (const c Field.one) a

let xor_fold c = function
  | [] -> invalid_arg "Circuit.xor_fold: empty"
  | w :: rest -> List.fold_left (fun acc v -> bit_xor c acc v) w rest

let n_parties c = c.n_parties
let input_count c ~party = c.input_counts.(party)
let gates c = Array.of_list (List.rev c.gates)
let wire_index w = w
let outputs c = List.rev c.outs

let layers c =
  let m = ref 0 in
  Array.iteri
    (fun w g -> match g with Mul _ -> m := max !m c.depth.(w) | _ -> ())
    (gates c);
  !m

let mul_layer c w = c.depth.(w) - 1

let eval_plain c ~inputs =
  if Array.length inputs <> c.n_parties then invalid_arg "Circuit.eval_plain: arity";
  Array.iteri
    (fun p l ->
      if List.length l <> c.input_counts.(p) then
        invalid_arg "Circuit.eval_plain: wrong input count")
    inputs;
  let values = Array.make c.count Field.zero in
  Array.iteri
    (fun w g ->
      values.(w) <-
        (match g with
        | Input (p, i) -> List.nth inputs.(p) i
        | Const v -> v
        | Add (a, b) -> Field.add values.(a) values.(b)
        | Sub (a, b) -> Field.sub values.(a) values.(b)
        | Scale (k, a) -> Field.mul k values.(a)
        | Mul (a, b) -> Field.mul values.(a) values.(b)))
    (gates c);
  List.map (fun w -> values.(w)) (outputs c)
