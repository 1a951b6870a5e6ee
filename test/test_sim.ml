(* Tests for sb_sim: message algebra, envelopes, and — most importantly
   — the network's rushing/visibility/authentication semantics. *)

open Sb_sim

let rng () = Sb_util.Rng.create 777

let make_ctx ?(n = 4) ?(thresh = 1) ?(k = 8) () =
  Ctx.make ~rng:(rng ()) ~n ~thresh ~k ()

(* --- Msg ---------------------------------------------------------- *)

let test_msg_roundtrips () =
  let v = Sb_util.Bitvec.of_string "1011" in
  Alcotest.(check bool) "bitvec roundtrip" true
    (Sb_util.Bitvec.equal v (Msg.to_bitvec_exn (Msg.of_bitvec v)));
  Alcotest.(check bool) "bit" true (Msg.to_bit_exn (Msg.Bit true));
  Alcotest.(check int) "int" 42 (Msg.to_int_exn (Msg.Int 42));
  Alcotest.(check string) "str" "x" (Msg.to_str_exn (Msg.Str "x"))

let test_msg_untag () =
  let m = Msg.Tag ("commit", Msg.Int 3) in
  Alcotest.(check int) "untag" 3 (Msg.to_int_exn (Msg.untag_exn "commit" m));
  Alcotest.check_raises "wrong tag"
    (Invalid_argument "Msg.untag_exn open: commit(3)") (fun () ->
      ignore (Msg.untag_exn "open" m))

let test_msg_serialize_injective_samples () =
  (* A few adversarially close pairs. *)
  let pairs =
    [
      (Msg.Str "ab", Msg.List [ Msg.Str "a"; Msg.Str "b" ]);
      (Msg.Int 12, Msg.Str "12");
      (Msg.List [ Msg.Bit true ], Msg.Bit true);
      (Msg.Tag ("a", Msg.Str "b"), Msg.Str "ab");
      (Msg.List [ Msg.Str "a"; Msg.Str "" ], Msg.List [ Msg.Str ""; Msg.Str "a" ]);
    ]
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Msg.to_string a ^ " vs " ^ Msg.to_string b)
        false
        (String.equal (Msg.serialize a) (Msg.serialize b)))
    pairs

let qcheck_msg_equal_refl =
  let gen_msg =
    QCheck.Gen.(
      sized @@ fix (fun self size ->
          if size <= 1 then
            oneof
              [
                return Msg.Unit;
                map (fun b -> Msg.Bit b) bool;
                map (fun i -> Msg.Int i) small_int;
                map (fun s -> Msg.Str s) small_string;
              ]
          else
            oneof
              [
                map (fun l -> Msg.List l) (list_size (0 -- 3) (self (size / 2)));
                map2 (fun t m -> Msg.Tag (t, m)) small_string (self (size / 2));
              ]))
  in
  QCheck.Test.make ~name:"msg serialize consistent with equal" ~count:300
    (QCheck.make gen_msg) (fun m ->
      Msg.equal m m && String.equal (Msg.serialize m) (Msg.serialize m))

(* Ints where the decimal width or the sign changes, and the two ends
   of the range ([min_int] has no positive counterpart). *)
let boundary_ints = [ min_int; max_int; 0; 1; -1; 9; -9; 10; -10; 99; -99; 100; -100 ]

(* A generator that reaches every constructor, including the crypto
   ones (Fe in [0, p); Ge as powers of the generator, so membership
   holds by construction). *)
let gen_msg_full =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        if size <= 1 then
          oneof
            [
              return Msg.Unit;
              map (fun b -> Msg.Bit b) bool;
              map (fun i -> Msg.Int i) small_signed_int;
              map (fun i -> Msg.Int i) (oneofl boundary_ints);
              map (fun s -> Msg.Str s) small_string;
              map (fun i -> Msg.Fe (Sb_crypto.Field.of_int i)) (0 -- (Sb_crypto.Field.p - 1));
              map (fun k -> Msg.Ge (Sb_crypto.Modgroup.pow_int Sb_crypto.Modgroup.g k))
                (0 -- 200);
            ]
        else
          oneof
            [
              map (fun l -> Msg.List l) (list_size (0 -- 3) (self (size / 2)));
              map2 (fun t m -> Msg.Tag (t, m)) small_string (self (size / 2));
            ]))

let test_msg_compare_pinned_order () =
  (* The constructor rank is part of the interface: mixed-constructor
     comparisons order by Unit < Bit < Int < Fe < Ge < Str < List < Tag. *)
  let ladder =
    [
      Msg.Unit;
      Msg.Bit false;
      Msg.Bit true;
      Msg.Int (-3);
      Msg.Int 7;
      Msg.Fe (Sb_crypto.Field.of_int 2);
      Msg.Ge Sb_crypto.Modgroup.g;
      Msg.Str "a";
      Msg.Str "b";
      Msg.List [];
      Msg.List [ Msg.Unit ];
      Msg.Tag ("a", Msg.Unit);
      Msg.Tag ("a", Msg.Bit true);
      Msg.Tag ("b", Msg.Unit);
    ]
  in
  let rec strictly_ascending = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Msg.to_string a ^ " < " ^ Msg.to_string b)
          true
          (Msg.compare a b < 0 && Msg.compare b a > 0);
        strictly_ascending rest
    | _ -> ()
  in
  strictly_ascending ladder;
  (* Structural, not physical: equal values compare 0 regardless of
     sharing (Stdlib.compare gave this too, but pin it explicitly). *)
  Alcotest.(check int) "equal lists" 0
    (Msg.compare (Msg.List [ Msg.Str "xy" ]) (Msg.List [ Msg.Str ("x" ^ "y") ]))

let qcheck_msg_compare_total_order =
  QCheck.Test.make ~name:"msg compare: antisymmetric and consistent with equal" ~count:500
    QCheck.(make Gen.(pair gen_msg_full gen_msg_full))
    (fun (a, b) ->
      let c = Msg.compare a b in
      c = -Msg.compare b a && (c = 0) = Msg.equal a b)

let qcheck_msg_deserialize_roundtrip =
  QCheck.Test.make ~name:"msg deserialize inverts serialize" ~count:500
    (QCheck.make gen_msg_full) (fun m ->
      match Msg.deserialize (Msg.serialize m) with
      | Some m' -> Msg.equal m m'
      | None -> false)

let test_msg_deserialize_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ String.escaped s) true
        (Msg.deserialize s = None))
    [
      "";
      "z";
      "u trailing";
      "b2";
      "i2:+1" (* non-canonical int *);
      "i02:12" (* non-canonical frame length *);
      Printf.sprintf "f%d:%d" (String.length (string_of_int Sb_crypto.Field.p))
        Sb_crypto.Field.p (* out of field range *);
      "l2:u" (* list elements must be 'e'-framed *);
      "t1:x" (* truncated tag *);
      Msg.serialize (Msg.Str "x") ^ "u" (* trailing bytes *);
    ]

let qcheck_msg_size_bytes =
  QCheck.Test.make ~name:"msg size_bytes = |serialize|" ~count:500
    (QCheck.make gen_msg_full) (fun m ->
      Msg.size_bytes m = String.length (Msg.serialize m))

(* The Printf-based encoder [Msg.serialize] replaced, kept verbatim as
   the oracle for the exact-size writer. *)
let rec printf_serialize m =
  let with_len c s = Printf.sprintf "%c%d:%s" c (String.length s) s in
  match m with
  | Msg.Unit -> "u"
  | Msg.Bit b -> if b then "b1" else "b0"
  | Msg.Int i -> with_len 'i' (string_of_int i)
  | Msg.Fe f -> with_len 'f' (Sb_crypto.Field.to_string f)
  | Msg.Ge g -> with_len 'g' (string_of_int (Sb_crypto.Modgroup.to_int g))
  | Msg.Str s -> with_len 's' s
  | Msg.List l ->
      with_len 'l' (String.concat "" (List.map (fun x -> with_len 'e' (printf_serialize x)) l))
  | Msg.Tag (s, x) -> with_len 't' (with_len 'n' s ^ printf_serialize x)

let qcheck_msg_serialize_oracle =
  QCheck.Test.make ~name:"msg serialize = Printf oracle" ~count:1000
    (QCheck.make gen_msg_full) (fun m -> String.equal (Msg.serialize m) (printf_serialize m))

(* Every constructor, nested lists and tags, empty strings and lists,
   payload lengths on both sides of a decimal width (9/10, 99/100),
   negative and extreme ints, [Fe (p-1)] and group elements. *)
let codec_corpus =
  let module F = Sb_crypto.Field in
  let module G = Sb_crypto.Modgroup in
  let str n = Msg.Str (String.init n (fun i -> Char.chr (97 + (i mod 26)))) in
  let ints = [ 0; 1; -1; 9; 10; -9; -10; 99; 100; -99; -100; 12345; -424242; max_int; min_int ] in
  let leaves =
    [ Msg.Unit; Msg.Bit false; Msg.Bit true ]
    @ List.map (fun i -> Msg.Int i) ints
    @ [
        Msg.Fe F.zero;
        Msg.Fe (F.of_int 1);
        Msg.Fe (F.of_int (F.p - 1));
        Msg.Ge G.g;
        Msg.Ge (G.pow_int G.g 12345);
        Msg.Str "";
        Msg.Str "x";
        Msg.Str "\000:e\255s3:";
        str 9;
        str 10;
        str 99;
        str 100;
      ]
  in
  leaves
  @ [
      Msg.List [];
      Msg.List [ Msg.Unit ];
      Msg.List [ Msg.List []; Msg.Str "" ];
      Msg.List leaves;
      Msg.List (List.init 10 (fun i -> Msg.Int (i - 5)));
      Msg.List [ str 99; Msg.List [ str 100; Msg.Tag ("", Msg.Unit) ] ];
      Msg.Tag ("", Msg.Unit);
      Msg.Tag ("share", Msg.Int 3);
      Msg.Tag ("abcdefghij", Msg.Str "");
      Msg.Tag
        ("a", Msg.Tag ("b", Msg.List [ Msg.Bit true; Msg.Int (-7); Msg.Fe (F.of_int (F.p - 1)) ]));
      Msg.Tag ("ds", Msg.List [ Msg.Bit true; Msg.List [ Msg.List [ Msg.Int 0; str 32 ] ] ]);
    ]

(* The digest was recorded from the Printf-based encoder; it must never
   be re-recorded. A drift means the wire format changed. *)
let test_msg_codec_pin () =
  let all = String.concat "" (List.map Msg.serialize codec_corpus) in
  Alcotest.(check int) "corpus size" 41 (List.length codec_corpus);
  Alcotest.(check int) "corpus bytes" 1463 (String.length all);
  Alcotest.(check string) "corpus md5" "7941f82c611b5728a356750157e019b8"
    (Digest.to_hex (Digest.string all));
  List.iter
    (fun m ->
      let s = Msg.serialize m in
      Alcotest.(check int) ("size_bytes " ^ Msg.to_string m) (String.length s) (Msg.size_bytes m);
      Alcotest.(check bool) ("round-trip " ^ Msg.to_string m) true
        (Option.fold ~none:false ~some:(Msg.equal m) (Msg.deserialize s)))
    codec_corpus;
  Alcotest.(check string) "min_int" "i20:-4611686018427387904" (Msg.serialize (Msg.Int min_int));
  Alcotest.(check int) "min_int size" 24 (Msg.size_bytes (Msg.Int min_int))

(* --- Envelope ----------------------------------------------------- *)

let test_envelope_addressing () =
  let e = Envelope.make ~src:1 ~dst:2 (Msg.Bit true) in
  Alcotest.(check (option int)) "src" (Some 1) (Envelope.src_party e);
  Alcotest.(check (option int)) "dst" (Some 2) (Envelope.dst_party e);
  Alcotest.(check bool) "not func" false (Envelope.is_func_bound e);
  let f = Envelope.to_func ~src:0 Msg.Unit in
  Alcotest.(check bool) "func bound" true (Envelope.is_func_bound f);
  Alcotest.(check int) "to_all count" 4 (List.length (Envelope.to_all ~n:4 ~src:0 Msg.Unit));
  Alcotest.(check int) "to_others count" 3
    (List.length (Envelope.to_others ~n:4 ~src:0 Msg.Unit))

let test_envelope_wire_size () =
  (* Header: "P<id>" per party endpoint, one char for F/All; body:
     Msg.size_bytes. *)
  let body = Msg.Str "hey" in
  let body_b = String.length (Msg.serialize body) in
  Alcotest.(check int) "p2p" (2 + 2 + body_b)
    (Envelope.wire_size (Envelope.make ~src:3 ~dst:7 body));
  Alcotest.(check int) "two-digit id" (3 + 2 + body_b)
    (Envelope.wire_size (Envelope.make ~src:12 ~dst:0 body));
  Alcotest.(check int) "broadcast counted once" (2 + 1 + body_b)
    (Envelope.wire_size (Envelope.broadcast ~src:4 body));
  Alcotest.(check int) "func" (2 + 1 + body_b)
    (Envelope.wire_size (Envelope.to_func ~src:9 body))

let test_arena_generations () =
  (* The two-sided pool's safety contract: a record handed out at flip
     f is never re-handed while it can still sit in a live mailbox
     (flip f+1); from flip f+2 on the same records come back, fields
     rewritten. *)
  let a = Envelope.Arena.create () in
  Alcotest.(check int) "fresh arena" 0 (Envelope.Arena.flips a);
  let batch0 = Envelope.Arena.to_all a ~n:4 ~src:0 (Msg.Str "g0") in
  Envelope.Arena.flip a;
  let batch1 = Envelope.Arena.to_all a ~n:4 ~src:1 (Msg.Str "g1") in
  List.iter
    (fun e1 ->
      Alcotest.(check bool) "one flip apart: no aliasing with live batch" false
        (List.memq e1 batch0))
    batch1;
  Envelope.Arena.flip a;
  Alcotest.(check int) "two flips" 2 (Envelope.Arena.flips a);
  let batch2 = Envelope.Arena.to_all a ~n:4 ~src:2 (Msg.Str "g2") in
  List.iteri
    (fun i e2 ->
      Alcotest.(check bool) "two flips apart: same records recycled in order" true
        (e2 == List.nth batch0 i);
      Alcotest.(check bool) "still distinct from the previous generation" false
        (List.memq e2 batch1);
      Alcotest.(check bool) "recycled fields are rewritten" true
        (Msg.equal e2.Envelope.body (Msg.Str "g2") && Envelope.src_party e2 = Some 2))
    batch2;
  (* Endpoints are shared: one [Party i] value per party, the same
     across generations and between the src and dst roles. *)
  List.iter2
    (fun e0 e1 ->
      Alcotest.(check bool) "dst endpoint shared across generations" true
        (e0.Envelope.dst == e1.Envelope.dst))
    batch0 batch1;
  List.iter
    (fun e1 ->
      Alcotest.(check bool) "src endpoint is the dst endpoint of the same party" true
        (e1.Envelope.src == (List.nth batch0 1).Envelope.dst))
    batch1;
  let made = Envelope.Arena.make a ~src:3 ~dst:1 (Msg.Int 5) in
  Alcotest.(check bool) "Arena.make = Envelope.make" true
    (made = Envelope.make ~src:3 ~dst:1 (Msg.Int 5));
  Alcotest.(check bool) "Arena.make shares endpoints" true
    (made.Envelope.dst == (List.nth batch0 1).Envelope.dst);
  (* Growing from n = 4 to n = 600 keeps the endpoints already handed
     out and addresses every new party correctly. *)
  let p2 = (List.nth batch0 2).Envelope.dst in
  let wide = Envelope.Arena.to_all a ~n:600 ~src:599 (Msg.Str "wide") in
  Alcotest.(check int) "600 envelopes" 600 (List.length wide);
  List.iteri
    (fun i e ->
      Alcotest.(check bool)
        (Printf.sprintf "grown arena: 599 -> %d" i)
        true
        (e = Envelope.make ~src:599 ~dst:i (Msg.Str "wide")))
    wide;
  Alcotest.(check bool) "endpoints survive growth" true
    ((List.nth wide 2).Envelope.dst == p2);
  Alcotest.(check bool) "grown Arena.make = Envelope.make" true
    (Envelope.Arena.make a ~src:0 ~dst:599 Msg.Unit = Envelope.make ~src:0 ~dst:599 Msg.Unit)

(* The arena path (trace off, comm tallies on, recycled envelopes,
   shared endpoints) against the plain path (fresh envelopes, full
   trace) on the same seeds: outputs, rounds and p2p counts must agree,
   and the arena's comm totals must equal the sums over the plain
   run's trace. The arena path runs twice on one arena, so the second
   run draws only recycled records. *)
let comm_of_trace n (trace : Trace.t) =
  let bcast_bytes, p2p_bytes = Trace.wire_bytes trace in
  let deliveries =
    List.fold_left
      (fun acc (r : Trace.round_record) ->
        let party =
          List.fold_left
            (fun acc e ->
              if Envelope.is_func_bound e then acc
              else if Envelope.is_broadcast e then acc + n
              else acc + 1)
            0
            (r.Trace.honest_sent @ r.Trace.adv_sent)
        in
        acc + party + List.length r.Trace.func_sent)
      0 trace
  in
  {
    Network.broadcasts = Trace.broadcast_count trace;
    broadcast_bytes = bcast_bytes;
    p2p_bytes;
    deliveries;
  }

let test_arena_vs_plain () =
  List.iter
    (fun ((scheme : Sb_broadcast.Session.scheme), n, thresh) ->
      let name = Printf.sprintf "%s n=%d" scheme.Sb_broadcast.Session.scheme_name n in
      let protocol = Sb_broadcast.Parallel.single scheme in
      let inputs = Array.init n (fun i -> Msg.Bit (i mod 3 = 0)) in
      let ctx ?pool () = Ctx.make ?pool ~rng:(Sb_util.Rng.create (40 + n)) ~n ~thresh ~k:8 () in
      let run_rng () = Sb_util.Rng.create (900 + n) in
      let plain = Network.honest_run (ctx ()) ~rng:(run_rng ()) ~protocol ~inputs in
      let pooled = ctx ~pool:(Envelope.Arena.create ()) () in
      let arena () =
        Network.honest_run ~record_trace:false ~record_comm:true ~reuse_envelopes:true pooled
          ~rng:(run_rng ()) ~protocol ~inputs
      in
      List.iteri
        (fun pass (r : Network.result) ->
          let what = Printf.sprintf "%s (arena pass %d)" name pass in
          Alcotest.(check (list (pair int string)))
            (what ^ ": outputs")
            (List.map (fun (i, m) -> (i, Msg.serialize m)) plain.Network.outputs)
            (List.map (fun (i, m) -> (i, Msg.serialize m)) r.Network.outputs);
          Alcotest.(check int) (what ^ ": rounds") plain.Network.rounds_used r.Network.rounds_used;
          Alcotest.(check int)
            (what ^ ": p2p messages")
            plain.Network.p2p_messages r.Network.p2p_messages;
          Alcotest.(check bool) (what ^ ": no trace") true (r.Network.trace = []);
          let fields (c : Network.comm) =
            Network.[ c.broadcasts; c.broadcast_bytes; c.p2p_bytes; c.deliveries ]
          in
          Alcotest.(check (option (list int)))
            (what ^ ": comm = trace sums")
            (Some (fields (comm_of_trace n plain.Network.trace)))
            (Option.map fields r.Network.comm))
        [ arena (); arena () ];
      Alcotest.(check bool) (name ^ ": sender's value decided") true
        (List.for_all (fun (_, m) -> Msg.equal m inputs.(0)) plain.Network.outputs))
    (List.concat_map
       (fun scheme -> [ (scheme, 16, 1); (scheme, 64, 1) ])
       [
         Sb_broadcast.Send_echo.scheme;
         Sb_broadcast.Bracha.scheme;
         Sb_broadcast.Phase_king.scheme;
         Sb_broadcast.Dolev_strong.scheme;
       ]
    @ [ (Sb_broadcast.Eig.scheme, 7, 2) ])

(* --- Network: basic delivery ------------------------------------- *)

(* A protocol where party 0 sends its input to everyone in round 0 and
   everyone outputs what they got from party 0. *)
let relay_protocol =
  {
    Protocol.name = "relay";
    rounds = (fun _ -> 1);
    make_functionality = None;
    make_party =
      (fun ctx ~rng:_ ~id ~input ->
        let got = ref Msg.Unit in
        let step ~round ~inbox =
          (match
             List.find_opt (fun (e : Envelope.t) -> Envelope.src_party e = Some 0) inbox
           with
          | Some e -> got := e.Envelope.body
          | None -> ());
          if round = 0 && id = 0 then Envelope.to_all ~n:ctx.Ctx.n ~src:0 input else []
        in
        { Party.step; output = (fun () -> !got) });
  }

let test_network_delivers_next_round () =
  let ctx = make_ctx () in
  let inputs = [| Msg.Int 9; Msg.Unit; Msg.Unit; Msg.Unit |] in
  let r = Network.honest_run ctx ~rng:(rng ()) ~protocol:relay_protocol ~inputs in
  List.iter
    (fun (_, out) -> Alcotest.(check bool) "got input" true (Msg.equal out (Msg.Int 9)))
    r.Network.outputs;
  Alcotest.(check int) "4 parties" 4 (List.length r.Network.outputs);
  Alcotest.(check int) "message count" 4 r.Network.p2p_messages

let test_network_rushing_visibility () =
  (* The adversary must see honest round-r messages inside round r. *)
  let ctx = make_ctx () in
  let seen = ref [] in
  let adv =
    {
      Adversary.name = "observer";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round = 0 then seen := view.Adversary.rushed;
                []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let inputs = [| Msg.Int 5; Msg.Unit; Msg.Unit; Msg.Unit |] in
  let _ =
    Network.run ctx ~rng:(rng ()) ~protocol:relay_protocol ~adversary:adv ~inputs ()
  in
  Alcotest.(check int) "saw all 4 same-round sends" 4 (List.length !seen);
  Alcotest.(check bool) "payload visible" true
    (List.for_all (fun (e : Envelope.t) -> Msg.equal e.Envelope.body (Msg.Int 5)) !seen)

let test_network_drops_spoofed () =
  (* An adversary that tries to send as an honest party is silenced. *)
  let ctx = make_ctx () in
  let adv =
    {
      Adversary.name = "spoofer";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round = 0 then
                  (* Claim to be party 0 and inject a fake value. *)
                  Envelope.to_all ~n:4 ~src:0 (Msg.Int 666)
                else []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let inputs = [| Msg.Int 1; Msg.Unit; Msg.Unit; Msg.Unit |] in
  let r = Network.run ctx ~rng:(rng ()) ~protocol:relay_protocol ~adversary:adv ~inputs () in
  List.iter
    (fun (_, out) -> Alcotest.(check bool) "real value survives" true (Msg.equal out (Msg.Int 1)))
    r.Network.outputs

let test_network_adversary_can_speak_as_corrupted () =
  let ctx = make_ctx () in
  let adv =
    {
      Adversary.name = "talker";
      choose_corrupt = (fun _ ~rng:_ -> [ 0 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round = 0 then Envelope.to_all ~n:4 ~src:0 (Msg.Int 8)
                else []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let inputs = [| Msg.Int 1; Msg.Unit; Msg.Unit; Msg.Unit |] in
  let r = Network.run ctx ~rng:(rng ()) ~protocol:relay_protocol ~adversary:adv ~inputs () in
  Alcotest.(check int) "3 honest outputs" 3 (List.length r.Network.outputs);
  List.iter
    (fun (_, out) -> Alcotest.(check bool) "adversarial value" true (Msg.equal out (Msg.Int 8)))
    r.Network.outputs

(* --- Network: functionality semantics ----------------------------- *)

(* Protocol: every party sends its input to the functionality in round
   0; the functionality XORs all bits and returns the result to
   everyone in round 1. *)
let xor_func_protocol =
  {
    Protocol.name = "xor-func";
    rounds = (fun _ -> 1);
    make_functionality =
      Some
        (fun ctx ~rng:_ ->
          Functionality.one_shot ~at_round:0 (fun inbox ->
              let value =
                List.fold_left
                  (fun acc (e : Envelope.t) ->
                    match e.Envelope.body with Msg.Bit b -> acc <> b | _ -> acc)
                  false inbox
              in
              List.init ctx.Ctx.n (fun i -> Envelope.from_func ~dst:i (Msg.Bit value))));
    make_party =
      (fun _ ~rng:_ ~id ~input ->
        let got = ref Msg.Unit in
        let step ~round ~inbox =
          List.iter
            (fun (e : Envelope.t) -> if Envelope.is_from_func e then got := e.Envelope.body)
            inbox;
          if round = 0 then [ Envelope.to_func ~src:id input ] else []
        in
        { Party.step; output = (fun () -> !got) });
  }

let test_functionality_computes () =
  let ctx = make_ctx () in
  let inputs = [| Msg.Bit true; Msg.Bit true; Msg.Bit false; Msg.Bit true |] in
  let r = Network.honest_run ctx ~rng:(rng ()) ~protocol:xor_func_protocol ~inputs in
  List.iter
    (fun (_, out) -> Alcotest.(check bool) "xor = 1" true (Msg.equal out (Msg.Bit true)))
    r.Network.outputs

let test_functionality_hidden_from_adversary () =
  (* Func-bound honest messages must NOT appear in the rushed view. *)
  let ctx = make_ctx () in
  let leak = ref false in
  let adv =
    {
      Adversary.name = "peeker";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if List.exists Envelope.is_func_bound view.Adversary.rushed then leak := true;
                []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let inputs = [| Msg.Bit true; Msg.Bit false; Msg.Bit false; Msg.Bit true |] in
  let _ = Network.run ctx ~rng:(rng ()) ~protocol:xor_func_protocol ~adversary:adv ~inputs () in
  Alcotest.(check bool) "no ideal-channel leak" false !leak

(* --- Network: round pipeline order --------------------------------- *)

(* Round 0 traffic of party [id] in the mixed protocol below: p2p,
   functionality-bound and broadcast envelopes interleaved, so any
   reordering or dropping in the pipeline shows. *)
let mixed_out ~n id =
  [
    Envelope.make ~src:id ~dst:((id + 1) mod n) (Msg.Int (100 * id));
    Envelope.to_func ~src:id (Msg.Int ((100 * id) + 1));
    Envelope.broadcast ~src:id (Msg.Int ((100 * id) + 2));
    Envelope.to_func ~src:id (Msg.Int ((100 * id) + 3));
    Envelope.make ~src:id ~dst:id (Msg.Int ((100 * id) + 4));
  ]

let mixed_protocol ~func =
  {
    Protocol.name = "mixed";
    rounds = (fun _ -> 1);
    make_functionality = None;
    make_party =
      (fun ctx ~rng:_ ~id ~input:_ ->
        let step ~round ~inbox:_ =
          if round <> 0 then []
          else
            List.filter
              (fun e -> func || not (Envelope.is_func_bound e))
              (mixed_out ~n:ctx.Ctx.n id)
        in
        { Party.step; output = (fun () -> Msg.Unit) });
  }

(* Corrupts party 3; records the round-0 rushed view and answers with
   [speak] (which may include a spoofed envelope). *)
let recording_adversary ~seen ~speak =
  {
    Adversary.name = "recorder";
    choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
    init =
      (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
        {
          Adversary.act =
            (fun view ->
              if view.Adversary.round = 0 then begin
                seen := view.Adversary.rushed;
                speak
              end
              else []);
          adv_output = (fun () -> Msg.Unit);
        });
  }

let envs = Alcotest.testable (Fmt.Dump.list Envelope.pp) ( = )

let test_network_rushed_order () =
  (* The rushed view is the honest queue in party order, minus exactly
     the functionality-bound envelopes — with and without such
     traffic in the round. *)
  List.iter
    (fun func ->
      let ctx = make_ctx () in
      let seen = ref [] in
      let _ =
        Network.run ctx ~rng:(rng ()) ~protocol:(mixed_protocol ~func)
          ~adversary:(recording_adversary ~seen ~speak:[])
          ~inputs:(Array.make 4 Msg.Unit) ()
      in
      let expected =
        List.filter
          (fun e -> not (Envelope.is_func_bound e))
          (List.concat_map (mixed_out ~n:4) [ 0; 1; 2 ])
      in
      Alcotest.check envs
        (Printf.sprintf "rushed = honest minus func-bound (func traffic: %b)" func)
        expected !seen)
    [ true; false ]

let test_network_interceptor_order () =
  (* The interceptor receives the honest queue as sent (func-bound
     envelopes included), then the adversary's envelopes in its order,
     spoofed ones removed — and the honest queue alone when the
     adversary is silent. *)
  let adv_speech =
    [
      Envelope.make ~src:3 ~dst:1 (Msg.Int 301);
      Envelope.make ~src:0 ~dst:1 (Msg.Int 666) (* spoofed: dropped *);
      Envelope.broadcast ~src:3 (Msg.Int 302);
      Envelope.to_func ~src:3 (Msg.Int 303);
    ]
  in
  List.iter
    (fun speak ->
      let ctx = make_ctx () in
      let seen = ref [] and queued = ref [] in
      let faults ~rng:_ ~round q =
        if round = 0 then queued := q;
        q
      in
      let _ =
        Network.run ctx ~rng:(rng ()) ~protocol:(mixed_protocol ~func:true)
          ~adversary:(recording_adversary ~seen ~speak)
          ~inputs:(Array.make 4 Msg.Unit) ~faults ()
      in
      let expected =
        List.concat_map (mixed_out ~n:4) [ 0; 1; 2 ]
        @ List.filter (fun e -> Envelope.src_is e 3) speak
      in
      Alcotest.check envs
        (Printf.sprintf "interceptor queue (%d adversarial envelopes)" (List.length speak))
        expected !queued)
    [ adv_speech; [] ]

let test_network_deterministic_under_seed () =
  let run () =
    let ctx = Ctx.make ~rng:(Sb_util.Rng.create 31337) ~n:4 ~thresh:1 ~k:8 () in
    let inputs = [| Msg.Bit true; Msg.Bit false; Msg.Bit true; Msg.Bit false |] in
    Network.honest_run ctx ~rng:(Sb_util.Rng.create 999) ~protocol:xor_func_protocol ~inputs
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same outputs" true
    (List.for_all2
       (fun (i, x) (j, y) -> i = j && Msg.equal x y)
       a.Network.outputs b.Network.outputs)

let test_network_rejects_wrong_input_count () =
  let ctx = make_ctx () in
  Alcotest.check_raises "wrong arity" (Invalid_argument "Network.run: wrong number of inputs")
    (fun () ->
      ignore (Network.honest_run ctx ~rng:(rng ()) ~protocol:relay_protocol ~inputs:[| Msg.Unit |]))

let test_broadcast_channel_semantics () =
  (* One broadcast envelope reaches every party identically, and a
     corrupted party cannot broadcast under an honest source id. *)
  let ctx = make_ctx () in
  let bcast_protocol =
    {
      Protocol.name = "bcast-once";
      rounds = (fun _ -> 1);
      make_functionality = None;
      make_party =
        (fun _ ~rng:_ ~id ~input ->
          let got = ref [] in
          let step ~round ~inbox =
            List.iter
              (fun (e : Envelope.t) ->
                if Envelope.is_broadcast e then got := e.Envelope.body :: !got)
              inbox;
            if round = 0 && id = 1 then [ Envelope.broadcast ~src:1 input ] else []
          in
          { Party.step; output = (fun () -> Msg.List !got) });
    }
  in
  let spoofer =
    {
      Adversary.name = "bcast-spoofer";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux:_ ->
          {
            Adversary.act =
              (fun view ->
                if view.Adversary.round = 0 then
                  [ Envelope.broadcast ~src:0 (Msg.Int 666) ] (* spoofed source *)
                else []);
            adv_output = (fun () -> Msg.Unit);
          });
    }
  in
  let inputs = [| Msg.Unit; Msg.Int 7; Msg.Unit; Msg.Unit |] in
  let r = Network.run ctx ~rng:(rng ()) ~protocol:bcast_protocol ~adversary:spoofer ~inputs () in
  List.iter
    (fun (_, out) ->
      Alcotest.(check bool) "only the honest broadcast arrives" true
        (Msg.equal out (Msg.List [ Msg.Int 7 ])))
    r.Network.outputs

let test_aux_input_reaches_adversary () =
  let ctx = make_ctx () in
  let captured = ref Msg.Unit in
  let adv =
    {
      Adversary.name = "aux-reader";
      choose_corrupt = (fun _ ~rng:_ -> [ 3 ]);
      init =
        (fun _ ~rng:_ ~corrupted:_ ~inputs:_ ~aux ->
          captured := aux;
          { Adversary.act = (fun _ -> []); adv_output = (fun () -> aux) });
    }
  in
  let inputs = Array.make 4 Msg.Unit in
  let r =
    Network.run ctx ~rng:(rng ()) ~protocol:relay_protocol ~adversary:adv ~inputs
      ~aux:(Msg.Str "z-input") ()
  in
  Alcotest.(check bool) "aux captured" true (Msg.equal !captured (Msg.Str "z-input"));
  Alcotest.(check bool) "aux in output" true (Msg.equal r.Network.adv_output (Msg.Str "z-input"))

(* --- Adversary combinators ---------------------------------------- *)

let test_semi_honest_matches_honest () =
  (* A semi-honest adversary corrupting one party must produce the same
     announced values as the all-honest run. *)
  let ctx = make_ctx () in
  let inputs = [| Msg.Int 4; Msg.Unit; Msg.Unit; Msg.Unit |] in
  let honest = Network.honest_run ctx ~rng:(Sb_util.Rng.create 5) ~protocol:relay_protocol ~inputs in
  let semi =
    Network.run ctx ~rng:(Sb_util.Rng.create 5) ~protocol:relay_protocol
      ~adversary:(Adversary.semi_honest relay_protocol ~corrupt:[ 2 ])
      ~inputs ()
  in
  let honest_out = List.filter (fun (i, _) -> i <> 2) honest.Network.outputs in
  Alcotest.(check int) "honest count" 3 (List.length semi.Network.outputs);
  List.iter2
    (fun (i, x) (j, y) ->
      Alcotest.(check int) "ids align" i j;
      Alcotest.(check bool) "same output" true (Msg.equal x y))
    honest_out semi.Network.outputs

let () =
  Alcotest.run "sb_sim"
    [
      ( "msg",
        [
          Alcotest.test_case "roundtrips" `Quick test_msg_roundtrips;
          Alcotest.test_case "untag" `Quick test_msg_untag;
          Alcotest.test_case "serialize injective samples" `Quick
            test_msg_serialize_injective_samples;
          QCheck_alcotest.to_alcotest qcheck_msg_equal_refl;
          Alcotest.test_case "compare pinned order" `Quick test_msg_compare_pinned_order;
          Alcotest.test_case "deserialize rejects malformed" `Quick
            test_msg_deserialize_rejects;
          QCheck_alcotest.to_alcotest qcheck_msg_compare_total_order;
          QCheck_alcotest.to_alcotest qcheck_msg_deserialize_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_msg_size_bytes;
          QCheck_alcotest.to_alcotest qcheck_msg_serialize_oracle;
          Alcotest.test_case "codec pinned to the Printf encoder" `Quick test_msg_codec_pin;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "addressing" `Quick test_envelope_addressing;
          Alcotest.test_case "wire size" `Quick test_envelope_wire_size;
          Alcotest.test_case "arena generations" `Quick test_arena_generations;
          Alcotest.test_case "arena vs plain path" `Quick test_arena_vs_plain;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivers next round" `Quick test_network_delivers_next_round;
          Alcotest.test_case "rushing visibility" `Quick test_network_rushing_visibility;
          Alcotest.test_case "drops spoofed" `Quick test_network_drops_spoofed;
          Alcotest.test_case "corrupted may speak" `Quick
            test_network_adversary_can_speak_as_corrupted;
          Alcotest.test_case "rushed keeps honest order" `Quick test_network_rushed_order;
          Alcotest.test_case "interceptor sees honest then adversarial" `Quick
            test_network_interceptor_order;
          Alcotest.test_case "deterministic under seed" `Quick
            test_network_deterministic_under_seed;
          Alcotest.test_case "wrong input count" `Quick test_network_rejects_wrong_input_count;
          Alcotest.test_case "broadcast channel semantics" `Quick
            test_broadcast_channel_semantics;
          Alcotest.test_case "aux input plumbing" `Quick test_aux_input_reaches_adversary;
        ] );
      ( "functionality",
        [
          Alcotest.test_case "computes" `Quick test_functionality_computes;
          Alcotest.test_case "ideal channel hidden" `Quick
            test_functionality_hidden_from_adversary;
        ] );
      ( "adversary",
        [ Alcotest.test_case "semi-honest = honest" `Quick test_semi_honest_matches_honest ] );
    ]
