package core

// NumVariants is the number of LbChat arms, for tests outside the package
// that walk every Variant.
const NumVariants = len(variantNames)
