let bit_of_field f = Sb_crypto.Field.equal f Sb_crypto.Field.one
let field_of_bit b = if b then Sb_crypto.Field.one else Sb_crypto.Field.zero
